//===- tests/predecode_test.cpp - Predecoded-engine identity suite --------===//
///
/// \file
/// The differential identity suite for the bytecode interpreter:
/// interpret() must be bit-for-bit identical to the tree-walking reference
/// (tests/reference/) in every observable — return value, memory-image
/// hash, DynOps, per-opcode OpCounts, WeightedCost, trap kind/location/
/// message, and (when profiling) the finalized FunctionProfile. Exercised
/// over the committed corpus, the paper's Fig. 2 running example, 1000+
/// fuzz-generated programs, hand-written trap programs for every TrapKind,
/// an entry-block phi, 70,000 blocks, a block of 70,000 instructions, and
/// fuel sweeps that force the careful fuel instantiation at every boundary
/// (N-1, N, N+1), including each half of every fused pair. Also checks that
/// predecode() accepts every verifier-clean function it is shown and
/// refuses only verifier-rejected ones.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "instrument/Profile.h"
#include "interp/Predecode.h"
#include "ir/Verifier.h"
#include "ssa/SSA.h"
#include "suite/Harness.h"

#include "ReferenceInterpreter.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;
using namespace epre::fuzz;

namespace {

std::string profileJSON(const FunctionProfile &P) {
  ProfileDoc D;
  D.Profiles.push_back(P);
  return D.toJSON(/*IncludeBlocks=*/true);
}

/// Runs \p F on interpret() and on the reference under identical conditions
/// and asserts every observable matches. Returns the reference result for
/// follow-up assertions.
ExecResult expectIdentical(const Function &F, const std::vector<RtValue> &Args,
                           size_t MemBytes, uint64_t MaxOps,
                           bool WithProfile = false) {
  ExecLimits Limits;
  Limits.MaxOps = MaxOps;

  MemoryImage MemL(MemBytes), MemP(MemBytes);
  ProfileCollector PCL, PCP;
  ExecResult L = interpretReference(F, Args, MemL, Limits,
                                    WithProfile ? &PCL : nullptr);
  ExecResult P =
      interpret(F, Args, MemP, Limits, WithProfile ? &PCP : nullptr);

  EXPECT_EQ(L.Trapped, P.Trapped);
  EXPECT_EQ(int(L.Kind), int(P.Kind));
  EXPECT_EQ(L.TrapReason, P.TrapReason);
  EXPECT_EQ(L.TrapFunction, P.TrapFunction);
  EXPECT_EQ(L.TrapBlock, P.TrapBlock);
  EXPECT_EQ(L.TrapInstIndex, P.TrapInstIndex);
  EXPECT_EQ(L.HasReturn, P.HasReturn);
  if (L.HasReturn && P.HasReturn) {
    EXPECT_TRUE(L.ReturnValue.identical(P.ReturnValue))
        << L.ReturnValue.I << " vs " << P.ReturnValue.I;
  }
  EXPECT_EQ(L.DynOps, P.DynOps);
  EXPECT_EQ(L.WeightedCost, P.WeightedCost);
  EXPECT_EQ(L.OpCounts, P.OpCounts);
  EXPECT_EQ(MemL.hash(), MemP.hash());

  // The documented invariant holds on every exit path of both runs.
  uint64_t SumL = 0, SumP = 0;
  for (uint64_t C : L.OpCounts)
    SumL += C;
  for (uint64_t C : P.OpCounts)
    SumP += C;
  EXPECT_EQ(L.DynOps, SumL);
  EXPECT_EQ(P.DynOps, SumP);

  // Argument-mismatch traps return before the collectors are reset against
  // F, so there is no profile to finalize on either side.
  if (WithProfile && L.Kind != TrapKind::ArgumentMismatch) {
    EXPECT_EQ(profileJSON(PCL.finalize(F)), profileJSON(PCP.finalize(F)));
  }
  return L;
}

/// Fuel sweep around and below the program's clean-run operation count:
/// exact fit, one short (trap on the last instruction), one past, midpoints
/// and tiny budgets. Forces the careful fuel instantiation at every
/// boundary.
void fuelSweep(const Function &F, const std::vector<RtValue> &Args,
               size_t MemBytes, uint64_t CleanDynOps) {
  std::vector<uint64_t> Budgets = {CleanDynOps, CleanDynOps + 1, 1, 2, 3};
  if (CleanDynOps > 0)
    Budgets.push_back(CleanDynOps - 1);
  if (CleanDynOps > 2)
    Budgets.push_back(CleanDynOps / 2);
  if (CleanDynOps > 4)
    Budgets.push_back(CleanDynOps / 4 + 1);
  for (uint64_t B : Budgets) {
    SCOPED_TRACE("MaxOps=" + std::to_string(B));
    expectIdentical(F, Args, MemBytes, B, /*WithProfile=*/true);
  }
}

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (E.path().extension() == ".iloc")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty());
  return Files;
}

std::vector<RtValue> defaultArgs(const Function &F) {
  std::vector<RtValue> Args;
  int64_t NextI = 7;
  double NextF = 1.5;
  for (Reg R : F.params()) {
    if (F.regType(R) == Type::I64) {
      Args.push_back(RtValue::ofI(NextI));
      NextI = -NextI + 5;
    } else {
      Args.push_back(RtValue::ofF(NextF));
      NextF = NextF * -1.75 + 0.5;
    }
  }
  return Args;
}

bool predecodes(const Function &F) {
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  return PD.predecode(F, A, BF);
}

/// Parses \p Text and returns its only function's module.
std::unique_ptr<Module> parseOne(const std::string &Text) {
  std::unique_ptr<Module> M = parseModuleText(Text);
  EXPECT_NE(M, nullptr) << Text;
  EXPECT_TRUE(!M || M->Functions.size() == 1);
  return M;
}

TEST(PredecodeIdentity, CorpusPrograms) {
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::unique_ptr<Module> M = parseModuleText(SS.str());
    ASSERT_NE(M, nullptr);
    for (auto &FP : M->Functions) {
      const Function &F = *FP;
      std::vector<RtValue> Args = defaultArgs(F);
      ExecResult Clean =
          expectIdentical(F, Args, 4096, 1'000'000, /*WithProfile=*/true);
      fuelSweep(F, Args, 4096, Clean.DynOps);
    }
  }
}

TEST(PredecodeIdentity, Fig2RunningExample) {
  const char *FooSource = R"(
function foo(y, z)
  s = 0
  x = y + z
  do i = x, 100
    s = i + s + x
  end do
  return s
end
)";
  for (NamingMode Mode : {NamingMode::Naive, NamingMode::Hashed}) {
    LowerResult LR = compileMiniFortran(FooSource, Mode);
    ASSERT_TRUE(LR.ok()) << LR.Error;
    Function *F = LR.M->find("foo");
    ASSERT_NE(F, nullptr);
    std::vector<RtValue> Args = {RtValue::ofF(1.0), RtValue::ofF(2.0)};
    ExecResult Clean =
        expectIdentical(*F, Args, 0, 1'000'000, /*WithProfile=*/true);
    EXPECT_FALSE(Clean.Trapped);
    fuelSweep(*F, Args, 0, Clean.DynOps);
  }
}

TEST(PredecodeIdentity, FuzzGeneratedPrograms) {
  // >= 1000 generated programs across every shape preset; every 8th one
  // additionally gets the full fuel sweep (careful-mode coverage).
  std::vector<std::string> Shapes = generatorShapeNames();
  ASSERT_FALSE(Shapes.empty());
  unsigned PerShape = (1000 + unsigned(Shapes.size()) - 1) /
                      unsigned(Shapes.size());
  unsigned Total = 0;
  for (const std::string &Shape : Shapes) {
    GeneratorOptions Opts;
    ASSERT_TRUE(shapeOptions(Shape, Opts));
    for (unsigned Seed = 0; Seed < PerShape; ++Seed, ++Total) {
      FuzzProgram Prog = generateProgram(1000 + Seed, Opts, Shape);
      std::unique_ptr<Module> M = parseModuleText(Prog.Text);
      ASSERT_NE(M, nullptr) << Shape << " seed " << Seed;
      SCOPED_TRACE(Shape + " seed " + std::to_string(Seed));
      const Function &F = *M->Functions[0];
      ExecResult Clean = expectIdentical(F, Prog.Args, Prog.MemBytes,
                                         2'000'000, Seed % 4 == 0);
      if (Seed % 8 == 0)
        fuelSweep(F, Prog.Args, Prog.MemBytes, Clean.DynOps);
    }
  }
  EXPECT_GE(Total, 1000u);
}

/// Phi moves: a 3-cycle and a swap on the back edge (each broken through a
/// scratch slot), a move chain, and an exit edge whose phis name one
/// destination twice (the later phi wins).
const char *PhiMovesText = R"(func @t(%r1:i64) -> i64 {
^e:
  %r2:i64 = loadi 1
  %r3:i64 = loadi 2
  %r4:i64 = loadi 3
  %r5:i64 = loadi 0
  br ^l
^l:
  %r6:i64 = phi [%r2, ^e], [%r7, ^l]
  %r7:i64 = phi [%r3, ^e], [%r8, ^l]
  %r8:i64 = phi [%r4, ^e], [%r6, ^l]
  %r9:i64 = phi [%r2, ^e], [%r10, ^l]
  %r10:i64 = phi [%r3, ^e], [%r9, ^l]
  %r11:i64 = phi [%r5, ^e], [%r12, ^l]
  %r13:i64 = phi [%r5, ^e], [%r11, ^l]
  %r14:i64 = loadi 1
  %r12:i64 = add %r11, %r14
  %r15:i64 = cmplt %r12, %r1
  cbr %r15, ^l, ^x
^x:
  %r16:i64 = phi [%r6, ^l]
  %r16:i64 = phi [%r9, ^l]
  %r17:i64 = loadi 10
  %r18:i64 = mul %r16, %r17
  %r19:i64 = add %r18, %r7
  %r20:i64 = mul %r19, %r17
  %r21:i64 = add %r20, %r13
  ret %r21
}
)";

TEST(PredecodeIdentity, PhiMoves) {
  std::unique_ptr<Module> M = parseOne(PhiMovesText);
  ASSERT_NE(M, nullptr);
  for (int64_t N = 0; N <= 7; ++N) {
    SCOPED_TRACE("N=" + std::to_string(N));
    ExecResult Clean = expectIdentical(*M->Functions[0], {RtValue::ofI(N)}, 0,
                                       1'000'000, /*WithProfile=*/true);
    EXPECT_FALSE(Clean.Trapped) << Clean.TrapReason;
  }

  // Generated programs in pruned SSA form: their joins and loops carry phi
  // webs.
  for (const std::string &Shape : generatorShapeNames()) {
    GeneratorOptions Opts;
    ASSERT_TRUE(shapeOptions(Shape, Opts));
    for (unsigned Seed = 0; Seed < 40; ++Seed) {
      FuzzProgram Prog = generateProgram(3000 + Seed, Opts, Shape);
      std::unique_ptr<Module> P = parseModuleText(Prog.Text);
      ASSERT_NE(P, nullptr) << Shape << " seed " << Seed;
      SCOPED_TRACE(Shape + " seed " + std::to_string(Seed));
      Function &F = *P->Functions[0];
      StatsRegistry SR;
      PassContext Ctx(&SR, nullptr);
      SSABuildPass().run(F, Ctx);
      expectIdentical(F, Prog.Args, Prog.MemBytes, 2'000'000, Seed % 4 == 0);
    }
  }
}

//===--------------------------------------------------------------------===//
// Trap programs: every TrapKind, including fused positions.
//===--------------------------------------------------------------------===//

void expectTrapIdentity(const std::string &Text,
                        const std::vector<RtValue> &Args, size_t MemBytes,
                        TrapKind Expected) {
  std::unique_ptr<Module> M = parseModuleText(Text);
  ASSERT_NE(M, nullptr) << Text;
  const Function &F = *M->Functions[0];
  ExecResult L = expectIdentical(F, Args, MemBytes, 100'000, true);
  EXPECT_TRUE(L.Trapped);
  EXPECT_EQ(int(Expected), int(L.Kind)) << L.TrapReason;
  fuelSweep(F, Args, MemBytes, L.DynOps);
}

TEST(PredecodeTraps, LoadOutOfBounds) {
  expectTrapIdentity(R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 4096
  %r3:i64 = add %r1, %r2
  %r4:i64 = load %r3
  ret %r4
})",
                     {RtValue::ofI(100)}, 64, TrapKind::MemoryOutOfBounds);
}

TEST(PredecodeTraps, FusedAddLoadOutOfBounds) {
  // The add+load pair fuses; the trap must still attribute to the load's
  // original instruction index with exact counts.
  const char *Text = R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 8
  %r3:i64 = add %r1, %r2
  %r4:i64 = load %r3
  ret %r4
})";
  std::unique_ptr<Module> M = parseModuleText(Text);
  ASSERT_NE(M, nullptr);
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*M->Functions[0], A, BF));
  EXPECT_GE(BF.FusedCount, 1u);
  expectTrapIdentity(Text, {RtValue::ofI(1 << 20)}, 64,
                     TrapKind::MemoryOutOfBounds);
  // And the in-bounds case through the same fused pair.
  ExecResult Ok =
      expectIdentical(*M->Functions[0], {RtValue::ofI(0)}, 64, 1000, true);
  EXPECT_FALSE(Ok.Trapped);
}

TEST(PredecodeTraps, StoreOutOfBounds) {
  expectTrapIdentity(R"(func @t(%r1:i64) -> i64 {
^entry:
  store %r1 -> %r1
  ret %r1
})",
                     {RtValue::ofI(-8)}, 64, TrapKind::MemoryOutOfBounds);
}

TEST(PredecodeTraps, DivByZeroAndModByZero) {
  expectTrapIdentity(R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 0
  %r3:i64 = div %r1, %r2
  ret %r3
})",
                     {RtValue::ofI(5)}, 0, TrapKind::ArithmeticTrap);
  expectTrapIdentity(R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 0
  %r3:i64 = mod %r1, %r2
  ret %r3
})",
                     {RtValue::ofI(5)}, 0, TrapKind::ArithmeticTrap);
  // INT64_MIN / -1 and INT64_MIN % -1 also trap.
  expectTrapIdentity(R"(func @t(%r1:i64, %r2:i64) -> i64 {
^entry:
  %r3:i64 = div %r1, %r2
  ret %r3
})",
                     {RtValue::ofI(INT64_MIN), RtValue::ofI(-1)}, 0,
                     TrapKind::ArithmeticTrap);
}

TEST(PredecodeTraps, F2IOutOfRange) {
  expectTrapIdentity(R"(func @t(%r1:f64) -> i64 {
^entry:
  %r2:i64 = f2i %r1
  ret %r2
})",
                     {RtValue::ofF(1e300)}, 0, TrapKind::ArithmeticTrap);
}

TEST(PredecodeTraps, IntAbsMinTraps) {
  expectTrapIdentity(R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = call abs(%r1)
  ret %r2
})",
                     {RtValue::ofI(INT64_MIN)}, 0, TrapKind::ArithmeticTrap);
}

TEST(PredecodeTraps, ArgumentMismatch) {
  std::unique_ptr<Module> M = parseModuleText(R"(func @t(%r1:i64) -> i64 {
^entry:
  ret %r1
})");
  ASSERT_NE(M, nullptr);
  const Function &F = *M->Functions[0];
  // Wrong count.
  ExecResult L = expectIdentical(F, {}, 0, 1000, true);
  EXPECT_EQ(int(L.Kind), int(TrapKind::ArgumentMismatch));
  EXPECT_EQ(L.DynOps, 0u);
  // Wrong type.
  L = expectIdentical(F, {RtValue::ofF(1.0)}, 0, 1000, true);
  EXPECT_EQ(int(L.Kind), int(TrapKind::ArgumentMismatch));
}

TEST(PredecodeTraps, ErasedBlock) {
  Function F("t");
  F.addParam(Type::I64);
  F.addBlock("entry");
  F.addBlock("gone");
  F.entry()->Insts.push_back(Instruction::makeBr(1));
  F.block(1)->Insts.push_back(Instruction::makeRet());
  F.eraseBlock(1);
  ExecResult L = expectIdentical(F, {RtValue::ofI(0)}, 0, 1000, true);
  EXPECT_EQ(int(L.Kind), int(TrapKind::ErasedBlock));
  EXPECT_EQ(L.DynOps, 1u); // the branch executed and counted
  EXPECT_TRUE(L.TrapBlock.empty());
}

TEST(PredecodeTraps, MissingPhiEntry) {
  Function F("t");
  Reg P = F.addParam(Type::I64);
  Reg D = F.makeReg(Type::I64);
  F.addBlock("entry");
  F.addBlock("join");
  F.entry()->Insts.push_back(Instruction::makeBr(1));
  Instruction Phi = Instruction::makePhi(Type::I64, D);
  Phi.addPhiIncoming(P, 1); // entry for block 1, but we arrive from block 0
  F.block(1)->Insts.push_back(Phi);
  F.block(1)->Insts.push_back(Instruction::makeRet(Type::I64, D));
  ExecResult L = expectIdentical(F, {RtValue::ofI(3)}, 0, 1000, true);
  EXPECT_EQ(int(L.Kind), int(TrapKind::MissingPhiEntry));
  EXPECT_EQ(L.TrapBlock, "join");
  EXPECT_EQ(L.TrapInstIndex, 0u);
  EXPECT_EQ(L.DynOps, 1u);
}

TEST(PredecodeTraps, FuelBoundaryExact) {
  // ret-only program: 1 op. N-1 traps, N and N+1 succeed.
  std::unique_ptr<Module> M = parseModuleText(R"(func @t() -> i64 {
^entry:
  %r1:i64 = loadi 42
  ret %r1
})");
  ASSERT_NE(M, nullptr);
  const Function &F = *M->Functions[0];
  ExecResult L = expectIdentical(F, {}, 0, 2, true);
  EXPECT_FALSE(L.Trapped);
  EXPECT_EQ(L.DynOps, 2u);
  L = expectIdentical(F, {}, 0, 1, true);
  EXPECT_EQ(int(L.Kind), int(TrapKind::FuelExhausted));
  EXPECT_EQ(L.DynOps, 2u); // the trapped op is counted, not executed
  L = expectIdentical(F, {}, 0, 3, true);
  EXPECT_FALSE(L.Trapped);
}

TEST(PredecodeTraps, FuelLandsOnEachFusedHalf) {
  // Each program runs its fused pair in a loop. Sweeping every budget from
  // 0 to the clean count lands the fuel limit on both halves of the pair
  // in several iterations; counts, trap location and profile must match
  // the reference at each.
  struct Case {
    POp Fused;
    const char *Text;
    std::vector<RtValue> Args;
  };
  const Case Cases[] = {
      {POp::FuseAddLoad, R"(func @t(%r1:i64, %r2:i64) -> i64 {
^entry:
  %r3:i64 = loadi 0
  br ^loop
^loop:
  %r4:i64 = add %r1, %r3
  %r5:i64 = load %r4
  %r6:i64 = loadi 8
  %r3:i64 = add %r3, %r6
  %r7:i64 = cmplt %r3, %r2
  cbr %r7, ^loop, ^exit
^exit:
  ret %r5
})",
       {RtValue::ofI(0), RtValue::ofI(32)}},
      {POp::FuseMulAddI, R"(func @t(%r1:i64, %r2:i64) -> i64 {
^entry:
  %r3:i64 = loadi 0
  br ^loop
^loop:
  %r4:i64 = mul %r3, %r1
  %r5:i64 = add %r4, %r2
  %r6:i64 = loadi 1
  %r3:i64 = add %r3, %r6
  %r7:i64 = cmplt %r3, %r2
  cbr %r7, ^loop, ^exit
^exit:
  ret %r5
})",
       {RtValue::ofI(3), RtValue::ofI(4)}},
      {POp::FuseMulAddF, R"(func @t(%r1:f64, %r2:i64) -> f64 {
^entry:
  %r3:i64 = loadi 0
  %r8:f64 = loadf 0.5
  br ^loop
^loop:
  %r4:f64 = mul %r1, %r8
  %r8:f64 = add %r8, %r4
  %r6:i64 = loadi 1
  %r3:i64 = add %r3, %r6
  %r7:i64 = cmplt %r3, %r2
  cbr %r7, ^loop, ^exit
^exit:
  ret %r8
})",
       {RtValue::ofF(1.25), RtValue::ofI(4)}},
      {POp::FuseCmpCbrI, R"(func @t(%r1:i64) -> i64 {
^entry:
  %r3:i64 = loadi 0
  br ^loop
^loop:
  %r6:i64 = loadi 1
  %r3:i64 = add %r3, %r6
  %r7:i64 = cmplt %r3, %r1
  cbr %r7, ^loop, ^exit
^exit:
  ret %r7
})",
       {RtValue::ofI(4)}},
      {POp::FuseCmpCbrF, R"(func @t(%r1:f64) -> i64 {
^entry:
  %r3:f64 = loadf 0.0
  %r6:f64 = loadf 1.0
  br ^loop
^loop:
  %r3:f64 = add %r3, %r6
  %r7:i64 = cmplt %r3, %r1
  cbr %r7, ^loop, ^exit
^exit:
  ret %r7
})",
       {RtValue::ofF(4.0)}},
  };
  for (const Case &C : Cases) {
    std::unique_ptr<Module> M = parseOne(C.Text);
    ASSERT_NE(M, nullptr);
    const Function &F = *M->Functions[0];
    ASSERT_TRUE(verifyFunction(F).empty());
    Predecoder PD;
    Arena A;
    BytecodeFunction BF;
    ASSERT_TRUE(PD.predecode(F, A, BF));
    bool HasPair = false;
    for (uint32_t PC = 0; PC < BF.CodeLen; ++PC)
      HasPair |= BF.Code[PC].Op == C.Fused;
    EXPECT_TRUE(HasPair) << C.Text;
    ExecResult Clean = expectIdentical(F, C.Args, 64, 1000, true);
    ASSERT_FALSE(Clean.Trapped) << Clean.TrapReason;
    for (uint64_t Budget = 0; Budget <= Clean.DynOps; ++Budget) {
      SCOPED_TRACE("MaxOps=" + std::to_string(Budget));
      expectIdentical(F, C.Args, 64, Budget, /*WithProfile=*/true);
    }
  }
}

//===--------------------------------------------------------------------===//
// Engine plumbing: fusion, rejected shapes, dispatch mode.
//===--------------------------------------------------------------------===//

TEST(Predecode, FusesHotPairs) {
  std::unique_ptr<Module> M = parseModuleText(R"(func @t(%r1:i64, %r2:i64) -> i64 {
^entry:
  %r3:i64 = mul %r1, %r2
  %r4:i64 = add %r3, %r1
  %r5:i64 = cmpgt %r4, %r2
  cbr %r5, ^a, ^b
^a:
  ret %r4
^b:
  ret %r2
})");
  ASSERT_NE(M, nullptr);
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*M->Functions[0], A, BF));
  EXPECT_EQ(BF.FusedCount, 2u); // mul+add and cmp+cbr
  expectIdentical(*M->Functions[0], {RtValue::ofI(6), RtValue::ofI(7)}, 0,
                  1000, true);
  expectIdentical(*M->Functions[0], {RtValue::ofI(-6), RtValue::ofI(7)}, 0,
                  1000, true);
}

TEST(Predecode, TrapsMalformedOnVerifierRejectedShapes) {
  // The predecoder refuses only shapes the verifier rejects; interpret()
  // then returns a malformed-function trap without running anything.
  auto expectMalformed = [](const Function &F) {
    EXPECT_FALSE(verifyFunction(F).empty());
    EXPECT_FALSE(predecodes(F));
    MemoryImage Mem(0);
    ProfileCollector PC;
    ExecResult R = interpret(F, {RtValue::ofI(1)}, Mem, {}, &PC);
    EXPECT_TRUE(R.Trapped);
    EXPECT_EQ(int(R.Kind), int(TrapKind::Malformed));
    EXPECT_STREQ(trapKindName(R.Kind), "malformed-function");
    EXPECT_EQ(R.TrapReason, "malformed function (in @t)");
    EXPECT_EQ(R.TrapFunction, "t");
    EXPECT_TRUE(R.TrapBlock.empty());
    EXPECT_EQ(R.DynOps, 0u);
    EXPECT_EQ(R.WeightedCost, 0u);
    EXPECT_EQ(R.OpCounts, std::vector<uint64_t>(unsigned(Opcode::Phi) + 1, 0));
    FunctionProfile P = PC.finalize(F); // reset against F: an empty profile
    EXPECT_EQ(P.DynOps, 0u);
  };
  // No terminator.
  {
    Function F("t");
    Reg A0 = F.addParam(Type::I64);
    Reg D = F.makeReg(Type::I64);
    F.addBlock("entry");
    F.entry()->Insts.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, D, A0, A0));
    expectMalformed(F);
  }
  // Phi after the first non-phi.
  {
    Function F("t");
    Reg A0 = F.addParam(Type::I64);
    Reg D = F.makeReg(Type::I64);
    F.addBlock("entry");
    F.entry()->Insts.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, D, A0, A0));
    Instruction Phi = Instruction::makePhi(Type::I64, D);
    Phi.addPhiIncoming(A0, 0);
    F.entry()->Insts.push_back(Phi);
    F.entry()->Insts.push_back(Instruction::makeRet(Type::I64, D));
    expectMalformed(F);
  }
}

//===--------------------------------------------------------------------===//
// predecode() accepts every verifier-clean function.
//===--------------------------------------------------------------------===//

/// An entry block whose phi is fed only by a back edge: execution enters
/// from no predecessor, so the run traps on the phi before any operation.
const char *EntryPhiText = R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = phi [%r3, ^loop]
  br ^loop
^loop:
  %r3:i64 = add %r2, %r1
  %r4:i64 = cmplt %r3, %r1
  cbr %r4, ^entry, ^exit
^exit:
  ret %r3
})";

/// A straight chain of \p N blocks, each adding the parameter once.
Function chainFunction(unsigned N) {
  Function F("chain");
  Reg P = F.addParam(Type::I64);
  F.setReturnType(Type::I64);
  Reg Acc = F.makeReg(Type::I64);
  for (unsigned I = 0; I < N; ++I)
    F.addBlock(); // labelled "b<I>"
  F.block(0)->Insts.push_back(Instruction::makeLoadI(Acc, 0));
  for (unsigned I = 0; I + 1 < N; ++I) {
    if (I)
      F.block(I)->Insts.push_back(
          Instruction::makeBinary(Opcode::Add, Type::I64, Acc, Acc, P));
    F.block(I)->Insts.push_back(Instruction::makeBr(I + 1));
  }
  F.block(N - 1)->Insts.push_back(Instruction::makeRet(Type::I64, Acc));
  return F;
}

/// One block of \p N instructions: alternating adds (half of them fusing
/// with a load of the sum) and a return.
Function longBlockFunction(unsigned N) {
  Function F("long");
  Reg P = F.addParam(Type::I64);
  F.setReturnType(Type::I64);
  Reg Addr = F.makeReg(Type::I64), V = F.makeReg(Type::I64);
  Reg Acc = F.makeReg(Type::I64);
  BasicBlock *B = F.addBlock("entry");
  B->Insts.push_back(Instruction::makeLoadI(Acc, 0));
  while (B->Insts.size() + 3 < N) {
    B->Insts.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, Addr, P, P));
    B->Insts.push_back(Instruction::makeLoad(Type::I64, V, Addr));
    B->Insts.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, Acc, Acc, V));
  }
  B->Insts.push_back(Instruction::makeRet(Type::I64, Acc));
  return F;
}

TEST(Predecode, AcceptsEveryVerifierCleanFunction) {
  auto expectAccepted = [](const Function &F) {
    ASSERT_TRUE(verifyFunction(F).empty()) << F.name();
    EXPECT_TRUE(predecodes(F)) << F.name();
  };

  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::unique_ptr<Module> M = parseModuleText(SS.str());
    ASSERT_NE(M, nullptr);
    for (auto &FP : M->Functions)
      expectAccepted(*FP);
  }

  // The 50 suite routines, optimized at each measured level.
  unsigned Routines = 0;
  for (const Routine &R : benchmarkSuite()) {
    for (OptLevel L : {OptLevel::Baseline, OptLevel::Partial,
                       OptLevel::Reassociation, OptLevel::Distribution}) {
      SCOPED_TRACE(R.Name + " at " + optLevelName(L));
      LowerResult LR = compileMiniFortran(R.Source, namingForLevel(L));
      ASSERT_TRUE(LR.ok()) << LR.Error;
      Function *F = LR.M->find(R.Name);
      ASSERT_NE(F, nullptr);
      PipelineOptions PO;
      PO.Level = L;
      PO.Naming = InputNaming::Naive;
      if (namingForLevel(L) == NamingMode::Hashed)
        PO.Naming = InputNaming::Hashed;
      optimizeFunction(*F, PO);
      expectAccepted(*F);
      ++Routines;
    }
  }
  EXPECT_EQ(Routines, 200u);

  unsigned Programs = 0;
  for (const std::string &Shape : generatorShapeNames()) {
    GeneratorOptions Opts;
    ASSERT_TRUE(shapeOptions(Shape, Opts));
    for (unsigned Seed = 0; Seed < 170; ++Seed, ++Programs) {
      SCOPED_TRACE(Shape + " seed " + std::to_string(Seed));
      FuzzProgram Prog = generateProgram(5000 + Seed, Opts, Shape);
      std::unique_ptr<Module> M = parseModuleText(Prog.Text);
      ASSERT_NE(M, nullptr);
      expectAccepted(*M->Functions[0]);
    }
  }
  EXPECT_GE(Programs, 1000u);

  // Verifier-clean shapes at the edges of the bytecode format: each must
  // match the reference at every fuel boundary.
  {
    SCOPED_TRACE("entry-block phi");
    std::unique_ptr<Module> M = parseOne(EntryPhiText);
    ASSERT_NE(M, nullptr);
    const Function &F = *M->Functions[0];
    expectAccepted(F);
    ExecResult R = expectIdentical(F, {RtValue::ofI(3)}, 0, 1000, true);
    EXPECT_EQ(int(R.Kind), int(TrapKind::MissingPhiEntry));
    EXPECT_EQ(R.TrapBlock, "entry");
    EXPECT_EQ(R.DynOps, 0u);
    fuelSweep(F, {RtValue::ofI(3)}, 0, R.DynOps);
  }
  {
    SCOPED_TRACE("70,000-block chain");
    Function F = chainFunction(70'000);
    expectAccepted(F);
    ExecResult R = expectIdentical(F, {RtValue::ofI(2)}, 0, 1'000'000, true);
    ASSERT_FALSE(R.Trapped) << R.TrapReason;
    EXPECT_EQ(R.ReturnValue.I, 2 * (70'000 - 2));
    fuelSweep(F, {RtValue::ofI(2)}, 0, R.DynOps);
  }
  {
    SCOPED_TRACE("block of 70,000 instructions");
    Function F = longBlockFunction(70'000);
    EXPECT_GT(F.entry()->Insts.size(), 65'535u);
    expectAccepted(F);
    ExecResult R = expectIdentical(F, {RtValue::ofI(8)}, 64, 1'000'000, true);
    ASSERT_FALSE(R.Trapped) << R.TrapReason;
    fuelSweep(F, {RtValue::ofI(8)}, 64, R.DynOps);
    // A trap past instruction 65,535 reports its full index.
    R = expectIdentical(F, {RtValue::ofI(8)}, 64, 68'000, true);
    EXPECT_EQ(int(R.Kind), int(TrapKind::FuelExhausted));
    EXPECT_EQ(R.TrapInstIndex, 68'000u);
  }
}

TEST(Predecode, DispatchModeIsExposed) {
  EXPECT_STREQ(interpDispatchMode(), "computed-goto");
}

TEST(Predecode, ArenaIsReusedAcrossRuns) {
  std::unique_ptr<Module> M = parseModuleText(R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = add %r1, %r1
  ret %r2
})");
  ASSERT_NE(M, nullptr);
  Predecoder PD;
  Arena Code, Scratch;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*M->Functions[0], Code, BF));
  MemoryImage Mem(0);
  (void)executeBytecode(BF, {RtValue::ofI(1)}, Mem, ExecLimits(), nullptr,
                        Scratch);
  size_t Reserved = Scratch.bytesReserved();
  for (int I = 0; I < 100; ++I)
    (void)executeBytecode(BF, {RtValue::ofI(I)}, Mem, ExecLimits(), nullptr,
                          Scratch);
  EXPECT_EQ(Scratch.bytesReserved(), Reserved); // no growth after warm-up
}

} // namespace
