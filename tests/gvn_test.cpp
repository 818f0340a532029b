//===- tests/gvn_test.cpp - AWZ value numbering and renaming --------------===//
///
/// \file
/// The AWZ partition and rename core, plus the engine axis: every corpus
/// program and 500+ generated programs behave identically under the
/// interpreter whichever engine (AWZ or DVNT) named the values, and the
/// engine names round-trip. The register-indexed partition must also match
/// the string-keyed reference in reference/ReferenceAWZ.cpp exactly.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "fuzz/Oracle.h"
#include "gvn/ValueNumbering.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/Pipeline.h"
#include "ssa/SSA.h"
#include "suite/Harness.h"

#include "ReferenceAWZ.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

using namespace epre;
using namespace epre::fuzz;
using epre::test::runPass;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

TEST(GVN, CongruentExpressionsShareName) {
  auto M = parse(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %t1:i64 = add %a, %b
  %t2:i64 = add %a, %b
  %t3:i64 = mul %t1, %t2
  ret %t3
}
)");
  Function &F = *M->Functions[0];
  GVNStats S = valueNumberSSA(F);
  EXPECT_GT(S.MergedDefs, 0u);
  const BasicBlock *E = F.entry();
  EXPECT_EQ(E->Insts[0].Dst, E->Insts[1].Dst);
  const Instruction &Mul = E->Insts[2];
  EXPECT_EQ(Mul.Operands[0], Mul.Operands[1]);
}

TEST(GVN, DifferentConstantsStayApart) {
  auto M = parse(R"(
func @f() -> i64 {
^e:
  %a:i64 = loadi 1
  %b:i64 = loadi 2
  %c:i64 = loadi 1
  %d:i64 = add %a, %b
  %e2:i64 = add %c, %b
  %r:i64 = add %d, %e2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  const BasicBlock *E = F.entry();
  // The two loadi 1 merge; loadi 2 stays distinct; the adds merge too.
  EXPECT_EQ(E->Insts[0].Dst, E->Insts[2].Dst);
  EXPECT_NE(E->Insts[0].Dst, E->Insts[1].Dst);
  EXPECT_EQ(E->Insts[3].Dst, E->Insts[4].Dst);
}

TEST(GVN, OptimisticLoopPhis) {
  // Two parallel induction chains with identical structure: the optimistic
  // AWZ fixpoint proves i ≅ j (pessimistic approaches cannot).
  auto M = parse(R"(
func @f(%n:i64) -> i64 {
^e:
  %z1:i64 = loadi 0
  %z2:i64 = loadi 0
  br ^l
^l:
  %i:i64 = phi [%z1, ^e], [%i2, ^l]
  %j:i64 = phi [%z2, ^e], [%j2, ^l]
  %one:i64 = loadi 1
  %i2:i64 = add %i, %one
  %j2:i64 = add %j, %one
  %c:i64 = cmplt %i2, %n
  cbr %c, ^l, ^x
^x:
  %r:i64 = add %i2, %j2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  GVNStats S = valueNumberSSA(F);
  EXPECT_GT(S.MergedDefs, 0u);
  // After renaming, the add in ^x adds a register to itself.
  const BasicBlock *X = F.block(2);
  const Instruction &Add = X->Insts[0];
  EXPECT_EQ(Add.Operands[0], Add.Operands[1]) << printFunction(F);
}

TEST(GVN, PhisInDifferentBlocksNeverMerge) {
  auto M = parse(R"(
func @f(%p:i64, %a:i64, %b:i64) -> i64 {
^e:
  cbr %p, ^m1, ^m2
^m1:
  br ^j1
^m2:
  br ^j1
^j1:
  %x:i64 = phi [%a, ^m1], [%b, ^m2]
  cbr %p, ^m3, ^m4
^m3:
  br ^j2
^m4:
  br ^j2
^j2:
  %y:i64 = phi [%a, ^m3], [%b, ^m4]
  %r:i64 = add %x, %y
  ret %r
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  // Even with positionally identical inputs, the phis sit in different
  // blocks ("the simplest variation") and must not merge.
  const BasicBlock *J2 = F.block(6);
  const Instruction &Add = J2->Insts[1];
  EXPECT_NE(Add.Operands[0], Add.Operands[1]);
}

TEST(GVN, LoadsNeverCongruent) {
  auto M = parse(R"(
func @f(%a:i64) -> f64 {
^e:
  %v1:f64 = load %a
  %v2:f64 = load %a
  %s:f64 = add %v1, %v2
  ret %s
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  const BasicBlock *E = F.entry();
  EXPECT_NE(E->Insts[0].Dst, E->Insts[1].Dst);
}

TEST(GVN, FullPhasePreservesBehaviour) {
  const char *Src = R"(
func @f(%a:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  %t1:i64 = add %a, %i
  %t2:i64 = add %a, %i
  %prod:i64 = mul %t1, %t2
  %s:i64 = add %s, %prod
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  ret %s
}
)";
  for (int64_t N : {1, 3, 9}) {
    auto M = parse(Src);
    Function &F = *M->Functions[0];
    MemoryImage Mem(0);
    int64_t Before =
        interpret(F, {RtValue::ofI(2), RtValue::ofI(N)}, Mem).ReturnValue.I;
    GVNStats S = runPass(F, GVNPass()).lastStats();
    EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
        << printFunction(F);
    EXPECT_GT(S.MergedDefs, 0u);
    int64_t After =
        interpret(F, {RtValue::ofI(2), RtValue::ofI(N)}, Mem).ReturnValue.I;
    EXPECT_EQ(Before, After) << "N=" << N;
  }
}

TEST(GVN, CommutedOperandsSimplestVariation) {
  // a+b vs b+a: the "simplest variation" is positional, so these do NOT
  // merge — documenting the paper's stated limitation.
  auto M = parse(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %t1:i64 = add %a, %b
  %t2:i64 = add %b, %a
  %r:i64 = add %t1, %t2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  const BasicBlock *E = F.entry();
  EXPECT_NE(E->Insts[0].Dst, E->Insts[1].Dst);
}

//===----------------------------------------------------------------------===//
// Engine agreement
//===----------------------------------------------------------------------===//

/// Reassociation-level configs differing only in the GVN engine. Strict FP
/// (AllowFPReassoc off) keeps every comparison bit-exact.
std::vector<OracleConfig> engineConfigs() {
  std::vector<OracleConfig> Configs;
  for (GVNEngine E : AllGVNEngines) {
    OracleConfig C;
    C.Name = std::string("engine/") + gvnEngineName(E);
    C.PO.Level = OptLevel::Reassociation;
    C.PO.Engine = E;
    C.PO.Naming = InputNaming::Hashed;
    C.PO.AllowFPReassoc = false;
    C.PO.Verify = false;
    Configs.push_back(C);
  }
  return Configs;
}

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (E.path().extension() == ".iloc")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(EngineAgreement, AllCorpusProgramsAgree) {
  OracleOptions OO;
  std::vector<OracleConfig> Configs = engineConfigs();
  std::vector<std::string> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << Path;
    std::stringstream SS;
    SS << In.rdbuf();

    FuzzProgram P;
    P.Text = SS.str();
    P.Shape = "corpus";
    P.MemBytes = 4096;
    std::unique_ptr<Module> M = parseModuleText(P.Text);
    ASSERT_NE(M, nullptr) << Path;
    int64_t NextI = 7;
    double NextF = 1.5;
    for (Reg R : M->Functions[0]->params()) {
      if (M->Functions[0]->regType(R) == Type::I64) {
        P.Args.push_back(RtValue::ofI(NextI));
        NextI = -NextI + 5;
      } else {
        P.Args.push_back(RtValue::ofF(NextF));
        NextF = -NextF + 0.75;
      }
    }

    OracleResult OR = runDifferentialOracle(P, OO, Configs);
    EXPECT_FALSE(OR.Inconclusive) << Path;
    EXPECT_FALSE(OR.Mismatch) << Path;
    for (const OracleFinding &F : OR.Findings)
      ADD_FAILURE() << Path << " [" << F.Config << "] "
                    << mismatchKindName(F.Kind) << ": " << F.Detail;
  }
}

/// 500+ generated programs, each run under every engine and compared
/// against the unoptimized reference: same trap verdict, same return
/// value, same memory image. The oracle's comparison logic does the
/// heavy lifting; this instantiates it for the engine axis alone.
TEST(EngineAgreement, FuzzedProgramsAgreeAcrossEngines) {
  OracleOptions OO;
  std::vector<OracleConfig> Configs = engineConfigs();
  std::vector<std::string> Shapes = generatorShapeNames();
  ASSERT_FALSE(Shapes.empty());
  const uint64_t SeedsPerShape = (500 + Shapes.size() - 1) / Shapes.size();

  uint64_t Ran = 0;
  for (const std::string &Shape : Shapes) {
    GeneratorOptions GO;
    ASSERT_TRUE(shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= SeedsPerShape; ++Seed) {
      FuzzProgram P = generateProgram(Seed, GO, Shape);
      OracleResult OR = runDifferentialOracle(P, OO, Configs);
      ++Ran;
      EXPECT_FALSE(OR.Mismatch) << Shape << " seed " << Seed;
      for (const OracleFinding &F : OR.Findings)
        ADD_FAILURE() << Shape << " seed " << Seed << " [" << F.Config
                      << "] " << mismatchKindName(F.Kind) << ": " << F.Detail;
    }
  }
  EXPECT_GE(Ran, 500u);
}

//===----------------------------------------------------------------------===//
// Identity against the string-keyed reference
//===----------------------------------------------------------------------===//

/// The SSA flavours AWZ sees: the pipeline's ssa.build (copies folded) and
/// GVNPass's own rebuild (copies kept as variable definitions).
std::vector<SSAOptions> ssaFlavours() {
  SSAOptions Folded;
  SSAOptions GVNStyle;
  GVNStyle.FoldCopies = false;
  return {Folded, GVNStyle};
}

/// \p Make returns a fresh copy of the same SSA-form function (in the
/// module it returns, found by \p Name) each call. valueNumberSSA runs on
/// one copy and the reference on another; the printed IR and every
/// GVNStats field must agree.
void expectSameAsReference(
    const std::function<std::unique_ptr<Module>()> &Make,
    const std::string &Name) {
  std::unique_ptr<Module> Fast = Make(), Ref = Make();
  ASSERT_NE(Fast, nullptr);
  ASSERT_NE(Ref, nullptr);
  Function *FF = Fast->find(Name), *RF = Ref->find(Name);
  ASSERT_NE(FF, nullptr);
  ASSERT_NE(RF, nullptr);
  GVNStats S = valueNumberSSA(*FF);
  GVNStats R = valueNumberSSAReference(*RF);
  EXPECT_EQ(S.Registers, R.Registers);
  EXPECT_EQ(S.Classes, R.Classes);
  EXPECT_EQ(S.MergedDefs, R.MergedDefs);
  EXPECT_EQ(printFunction(*FF), printFunction(*RF));
}

/// Parses \p Text and builds SSA with \p Opts.
std::unique_ptr<Module> parseIntoSSA(const std::string &Text,
                                     const SSAOptions &Opts) {
  std::unique_ptr<Module> M = parseModuleText(Text);
  if (M)
    runPass(*M->Functions[0], SSABuildPass(Opts));
  return M;
}

TEST(ReferenceAWZ, CorpusMatches) {
  std::vector<std::string> Files = corpusFiles();
  ASSERT_TRUE(std::any_of(Files.begin(), Files.end(), [](auto &P) {
    return P.find("irreducible.iloc") != std::string::npos;
  }));
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << Path;
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Text = SS.str();
    std::string Name = parseModuleText(Text)->Functions[0]->name();
    for (const SSAOptions &Opts : ssaFlavours()) {
      SCOPED_TRACE(Path + (Opts.FoldCopies ? " (copies folded)" : ""));
      expectSameAsReference([&] { return parseIntoSSA(Text, Opts); }, Name);
    }
  }
}

/// The 50 suite routines at every level, cut right after the pipeline's
/// ssa.build (levels that never build SSA get one directly after
/// lowering), and again in the form GVNPass itself partitions.
TEST(ReferenceAWZ, SuiteRoutinesMatch) {
  unsigned Compared = 0;
  for (const Routine &R : benchmarkSuite()) {
    for (OptLevel L : {OptLevel::Baseline, OptLevel::Partial,
                       OptLevel::Reassociation, OptLevel::Distribution}) {
      SCOPED_TRACE(R.Name + " at " + optLevelName(L));
      PipelineOptions PO;
      PO.Level = L;
      PO.Naming = namingForLevel(L) == NamingMode::Hashed ? InputNaming::Hashed
                                                          : InputNaming::Naive;
      auto lower = [&] {
        LowerResult LR = compileMiniFortran(R.Source, namingForLevel(L));
        EXPECT_TRUE(LR.ok()) << LR.Error;
        return std::move(LR.M);
      };
      std::unique_ptr<Module> Traced = lower();
      ASSERT_NE(Traced, nullptr);
      std::vector<std::string> Trace =
          optimizeFunctionPrefix(*Traced->find(R.Name), PO, ~0u).Trace;
      // Runs the first Cut pass applications on a fresh copy, then builds
      // SSA with Opts when Build is set.
      auto prefix = [&](unsigned Cut, bool Build, SSAOptions Opts) {
        return [&, Cut, Build, Opts] {
          std::unique_ptr<Module> M = lower();
          Function &F = *M->find(R.Name);
          optimizeFunctionPrefix(F, PO, Cut);
          if (Build)
            runPass(F, SSABuildPass(Opts));
          return M;
        };
      };
      auto SSA = std::find(Trace.begin(), Trace.end(), "ssa.build");
      if (SSA != Trace.end())
        expectSameAsReference(
            prefix(unsigned(SSA - Trace.begin()) + 1, false, {}), R.Name);
      else
        expectSameAsReference(prefix(0, true, {}), R.Name);
      ++Compared;
      // GVNPass's input: the pipeline just before gvn, rebuilt into SSA
      // with copies kept.
      auto GVN = std::find(Trace.begin(), Trace.end(), "gvn");
      if (GVN != Trace.end())
        expectSameAsReference(
            prefix(unsigned(GVN - Trace.begin()), true, ssaFlavours()[1]),
            R.Name);
    }
  }
  EXPECT_EQ(Compared, 200u);
}

/// 540 generated programs (90 per shape), both SSA flavours.
TEST(ReferenceAWZ, FuzzedProgramsMatch) {
  unsigned Compared = 0;
  for (const std::string &Shape : generatorShapeNames()) {
    GeneratorOptions GO;
    ASSERT_TRUE(shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= 90; ++Seed, ++Compared) {
      SCOPED_TRACE(Shape + " seed " + std::to_string(Seed));
      FuzzProgram P = generateProgram(Seed, GO, Shape);
      std::unique_ptr<Module> M = parseModuleText(P.Text);
      ASSERT_NE(M, nullptr);
      std::string Name = M->Functions[0]->name();
      for (const SSAOptions &Opts : ssaFlavours())
        expectSameAsReference([&] { return parseIntoSSA(P.Text, Opts); },
                              Name);
    }
  }
  EXPECT_EQ(Compared, 540u);
}

//===----------------------------------------------------------------------===//
// Engine names
//===----------------------------------------------------------------------===//

TEST(EngineNames, RoundTripAndRejection) {
  for (GVNEngine E : AllGVNEngines) {
    GVNEngine Back;
    ASSERT_TRUE(parseGVNEngine(gvnEngineName(E), Back)) << gvnEngineName(E);
    EXPECT_EQ(Back, E) << gvnEngineName(E);
  }
  GVNEngine E;
  EXPECT_FALSE(parseGVNEngine("", E));
  EXPECT_FALSE(parseGVNEngine("simple", E));
  EXPECT_FALSE(parseGVNEngine("AWZ", E));
  // A retired engine's spelling is rejected, never mapped to another.
  EXPECT_FALSE(parseGVNEngine("simple-gvn", E));

  // The rejection message material: exactly the two engines are listed.
  EXPECT_EQ(gvnEngineNames(), "awz, dvnt");
}

} // namespace
