//===- tests/ssa_test.cpp - SSA construction/destruction, parallel copies -===//

#include "analysis/CFG.h"
#include "gvn/DVNT.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "ssa/ParallelCopy.h"
#include "ssa/SSA.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace epre;
using epre::test::runOnStack;
using epre::test::runPass;
using epre::test::runPassStat;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

unsigned countPhis(const Function &F) {
  unsigned N = 0;
  F.forEachBlock([&](const BasicBlock &B) { N += B.firstNonPhi(); });
  return N;
}

unsigned countCopies(const Function &F) {
  unsigned N = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      N += I.isCopy();
  });
  return N;
}

// A loop accumulating into two variables.
const char *LoopSrc = R"(
func @f(%n:i64) -> i64 {
^e:
  %s:i64 = loadi 0
  %i:i64 = loadi 0
  br ^l
^l:
  %s:i64 = add %s, %i
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  ret %s
}
)";

ExecResult run(const Function &F, int64_t N) {
  MemoryImage Mem(0);
  return interpret(F, {RtValue::ofI(N)}, Mem);
}

TEST(SSA, BuildsValidSSA) {
  auto M = parse(LoopSrc);
  Function &F = *M->Functions[0];
  uint64_t Phis = runPassStat(F, "phis", SSABuildPass());
  EXPECT_TRUE(verifyFunction(F, SSAMode::SSA).empty())
      << printFunction(F);
  // s and i each need a phi at the loop header.
  EXPECT_EQ(Phis, 2u);
  EXPECT_EQ(countPhis(F), 2u);
}

TEST(SSA, CopyFoldingRemovesCopies) {
  const char *Src = R"(
func @f(%x:i64) -> i64 {
^e:
  %a:i64 = copy %x
  %b:i64 = copy %a
  %c:i64 = add %b, %b
  ret %c
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  EXPECT_EQ(runPassStat(F, "copies_folded", SSABuildPass()), 2u);
  EXPECT_EQ(countCopies(F), 0u);
  // The add must now reference the parameter directly.
  bool Found = false;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::Add) {
        EXPECT_EQ(I.Operands[0], F.params()[0]);
        Found = true;
      }
  });
  EXPECT_TRUE(Found);
}

/// A join of three variables: its phis stand for the highest variable
/// first, and renaming numbers the arms in dominator-tree order (^b before
/// ^a), then the phis in order.
TEST(SSA, JoinPhisComeHighestVariableFirst) {
  const char *Src = R"(
func @join(%r1:i64) -> i64 {
^entry:
  cbr %r1, ^a, ^b
^a:
  %r2:i64 = loadi 1
  %r3:i64 = loadi 2
  %r4:i64 = loadi 3
  br ^j
^b:
  %r4:i64 = loadi 6
  %r3:i64 = loadi 5
  %r2:i64 = loadi 4
  br ^j
^j:
  %r5:i64 = sub %r2, %r3
  %r6:i64 = mul %r5, %r4
  ret %r6
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  EXPECT_EQ(runPassStat(F, "phis", SSABuildPass()), 3u);
  EXPECT_EQ(printFunction(F), R"(func @join(%r1:i64) -> i64 {
^entry:
  cbr %r1, ^a, ^b
^a:
  %r10:i64 = loadi 1
  %r11:i64 = loadi 2
  %r12:i64 = loadi 3
  br ^j
^b:
  %r7:i64 = loadi 6
  %r8:i64 = loadi 5
  %r9:i64 = loadi 4
  br ^j
^j:
  %r13:i64 = phi [%r7, ^b], [%r12, ^a]
  %r14:i64 = phi [%r8, ^b], [%r11, ^a]
  %r15:i64 = phi [%r9, ^b], [%r10, ^a]
  %r16:i64 = sub %r15, %r14
  %r17:i64 = mul %r16, %r13
  ret %r17
}
)");
}

TEST(SSA, PruningSuppressesDeadPhis) {
  // v is assigned on both arms but never used after the join: a pruned
  // build places no phi for it.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^e:
  cbr %p, ^a, ^b
^a:
  %v:i64 = loadi 1
  br ^j
^b:
  %v:i64 = loadi 2
  br ^j
^j:
  %r:i64 = loadi 9
  ret %r
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  runPass(F, SSABuildPass());
  EXPECT_EQ(countPhis(F), 0u);
}

TEST(SSA, RoundTripPreservesBehaviour) {
  for (int64_t N : {0, 1, 2, 17, 100}) {
    auto M = parse(LoopSrc);
    Function &F = *M->Functions[0];
    ExecResult Before = run(F, N);
    runPass(F, SSABuildPass());
    ExecResult Mid = run(F, N);
    runPass(F, SSADestroyPass());
    EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
        << printFunction(F);
    ExecResult After = run(F, N);
    ASSERT_FALSE(Before.Trapped || Mid.Trapped || After.Trapped);
    EXPECT_EQ(Before.ReturnValue.I, Mid.ReturnValue.I) << "N=" << N;
    EXPECT_EQ(Before.ReturnValue.I, After.ReturnValue.I) << "N=" << N;
  }
}

TEST(SSA, UndefinedUseGetsZeroInit) {
  // %v is used before any definition on the p=0 path; SSA construction
  // must zero-initialize rather than crash, and the interpreter semantics
  // (registers start at 0) must be preserved.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^e:
  cbr %p, ^a, ^j
^a:
  %v:i64 = loadi 7
  br ^j
^j:
  ret %v
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  ExecResult R0 = run(F, 0), R1 = run(F, 1);
  runPass(F, SSABuildPass());
  EXPECT_TRUE(verifyFunction(F, SSAMode::SSA).empty())
      << printFunction(F);
  ExecResult S0 = run(F, 0), S1 = run(F, 1);
  EXPECT_EQ(R0.ReturnValue.I, S0.ReturnValue.I);
  EXPECT_EQ(R1.ReturnValue.I, S1.ReturnValue.I);
}

TEST(SSA, LoopThroughEntryGetsItsOwnHeader) {
  // The back edge ^j -> ^e makes the entry a loop header. Registers start
  // at zero once, before the first trip, so the %v that ^e reads carries
  // ^a's 5 into every later trip. Construction moves the entry's code into
  // a block of its own: the zero-init stays in the entry, outside the
  // loop, and phis carry %v and %k around it.
  const char *Src = R"(
func @f(%n:i64, %c:i64) -> i64 {
^e:
  %one:i64 = loadi 1
  %t:i64 = add %v, %one
  %k:i64 = add %k, %one
  cbr %c, ^a, ^b
^a:
  %v:i64 = loadi 5
  br ^j
^b:
  br ^j
^j:
  %d:i64 = cmplt %k, %n
  cbr %d, ^e, ^x
^x:
  ret %t
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  auto runOn = [&](int64_t N, int64_t C) {
    MemoryImage Mem(0);
    ExecResult R = interpret(F, {RtValue::ofI(N), RtValue::ofI(C)}, Mem);
    EXPECT_TRUE(R.ok()) << R.TrapReason;
    return R.ReturnValue.I;
  };
  ASSERT_EQ(runOn(3, 1), 6);
  ASSERT_EQ(runOn(3, 0), 1);
  ASSERT_EQ(runOn(1, 1), 1);
  runPass(F, SSABuildPass());
  EXPECT_TRUE(verifyFunction(F, SSAMode::SSA).empty()) << printFunction(F);
  EXPECT_TRUE(CFG::compute(F).preds(0).empty()) << printFunction(F);
  EXPECT_EQ(runOn(3, 1), 6) << printFunction(F);
  EXPECT_EQ(runOn(3, 0), 1) << printFunction(F);
  EXPECT_EQ(runOn(1, 1), 1) << printFunction(F);
}

/// A straight line of \p N + 1 blocks, each after the first redefining one
/// variable: the dominator tree is a path N + 1 deep.
std::string straightChain(unsigned N) {
  std::string S = "func @chain(%r1:i64) -> i64 {\n^b0:\n  %r2:i64 = copy %r1\n"
                  "  br ^b1\n";
  for (unsigned B = 1; B < N; ++B)
    S += strprintf("^b%u:\n  %%r3:i64 = add %%r2, %%r1\n  %%r2:i64 = copy "
                   "%%r3\n  br ^b%u\n",
                   B, B + 1);
  return S + strprintf("^b%u:\n  ret %%r2\n}\n", N);
}

/// SSA renaming and dominator-tree value numbering walk the dominator tree,
/// which is as deep as the function's longest block chain. They keep their
/// own stacks, so a 50,000-block chain fits in 256 KiB of thread stack
/// (docs/PASSES.md, "Deep inputs").
TEST(SSA, DominatorTreeWalksFitASmallThreadStack) {
  const std::string Text = straightChain(50000);
  auto ForSSA = parse(Text.c_str());
  auto ForDVNT = parse(Text.c_str());
  std::string SSAErrors, DVNTErrors;
  runOnStack(256 * 1024, [&] {
    Function &F = *ForSSA->Functions[0];
    runPass(F, SSABuildPass());
    for (const std::string &E : verifyFunction(F, SSAMode::SSA))
      SSAErrors += E + "\n";
    Function &G = *ForDVNT->Functions[0];
    runPass(G, DVNTPass());
    for (const std::string &E : verifyFunction(G, SSAMode::NoSSA))
      DVNTErrors += E + "\n";
  });
  EXPECT_EQ(SSAErrors, "");
  EXPECT_EQ(DVNTErrors, "");
  EXPECT_EQ(ForSSA->Functions[0]->numBlocks(), 50001u);
}

/// Runs sequenceParallelCopies on \p Copies, with temporaries numbered
/// from \p FirstTemp; returns the emitted (Dst, Src) sequence.
std::vector<PendingCopy> sequence(std::vector<PendingCopy> Copies,
                                  Reg FirstTemp = 100) {
  std::vector<PendingCopy> Seq;
  sequenceParallelCopies(
      Copies, [&](Reg D, Reg S) { Seq.push_back({D, S}); },
      [&](Reg) { return FirstTemp++; });
  return Seq;
}

/// Replays \p Seq over register values \p Val (absent registers read 0).
std::map<Reg, int> replay(const std::vector<PendingCopy> &Seq,
                          std::map<Reg, int> Val) {
  for (const PendingCopy &C : Seq)
    Val[C.Dst] = Val[C.Src];
  return Val;
}

TEST(ParallelCopy, IndependentCopies) {
  std::vector<PendingCopy> Seq = sequence({{1, 3}, {2, 4}});
  ASSERT_EQ(Seq.size(), 2u);
  EXPECT_EQ(Seq[0].Dst, 1u);
  EXPECT_EQ(Seq[1].Dst, 2u);
}

TEST(ParallelCopy, SelfCopyDropped) {
  EXPECT_TRUE(sequence({{1, 1}}).empty());
}

TEST(ParallelCopy, ChainOrdered) {
  // {a<-b, b<-c}: must emit a<-b before b<-c.
  std::vector<PendingCopy> Seq = sequence({{2, 3}, {1, 2}});
  ASSERT_EQ(Seq.size(), 2u);
  EXPECT_EQ(Seq[0].Dst, 1u);
  EXPECT_EQ(Seq[1].Dst, 2u);
}

TEST(ParallelCopy, SwapNeedsTemp) {
  // {a<-b, b<-a}: a cycle; a temporary must break it.
  unsigned Temps = 0;
  std::vector<PendingCopy> Copies = {{1, 2}, {2, 1}};
  std::vector<PendingCopy> Seq;
  sequenceParallelCopies(
      Copies, [&](Reg D, Reg S) { Seq.push_back({D, S}); },
      [&](Reg Saved) {
        EXPECT_EQ(Saved, 1u); // the first pending copy's destination
        ++Temps;
        return Reg(100);
      });
  ASSERT_EQ(Seq.size(), 3u);
  EXPECT_EQ(Temps, 1u);
  std::map<Reg, int> Val = replay(Seq, {{1, 1}, {2, 2}});
  EXPECT_EQ(Val[1], 2);
  EXPECT_EQ(Val[2], 1);
}

TEST(ParallelCopy, ThreeCycle) {
  std::map<Reg, int> Val =
      replay(sequence({{1, 2}, {2, 3}, {3, 1}}), {{1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(Val[1], 2);
  EXPECT_EQ(Val[2], 3);
  EXPECT_EQ(Val[3], 1);
}

TEST(ParallelCopy, CopyInstructionsUseNewRegistersOfTheFunction) {
  Function F("f");
  Reg A = F.makeReg(Type::F64), B = F.makeReg(Type::F64);
  unsigned RegsBefore = F.numRegs();
  std::vector<PendingCopy> Copies = {{A, B}, {B, A}};
  std::vector<Instruction> Seq;
  sequenceCopyInstructions(F, Copies,
                           [&](Instruction &&C) { Seq.push_back(C); });
  ASSERT_EQ(Seq.size(), 3u);
  EXPECT_EQ(F.numRegs(), RegsBefore + 1);
  for (const Instruction &I : Seq) {
    EXPECT_TRUE(I.isCopy());
    EXPECT_EQ(F.regType(I.Dst), Type::F64);
  }
}

TEST(SSA, DestroySwapLoop) {
  // A loop swapping two variables each iteration: destruction must use a
  // temporary, and behaviour must be identical.
  const char *Src = R"(
func @f(%n:i64) -> i64 {
^e:
  %a:i64 = loadi 1
  %b:i64 = loadi 2
  %i:i64 = loadi 0
  br ^l
^l:
  %t:i64 = copy %a
  %a:i64 = copy %b
  %b:i64 = copy %t
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  %h:i64 = loadi 10
  %r:i64 = mul %a, %h
  %r2:i64 = add %r, %b
  ret %r2
}
)";
  for (int64_t N : {0, 1, 2, 3, 7}) {
    auto M = parse(Src);
    Function &F = *M->Functions[0];
    ExecResult Before = run(F, N);
    runPass(F, SSABuildPass());
    runPass(F, SSADestroyPass());
    ExecResult After = run(F, N);
    ASSERT_FALSE(Before.Trapped || After.Trapped);
    EXPECT_EQ(Before.ReturnValue.I, After.ReturnValue.I) << "N=" << N;
  }
}

// A loop that swaps %a and %b through its header phis. The back edge
// ^h -> ^h keeps its copies inline (the header is its own latch); the exit
// ^h -> ^j is a critical entering edge into a phi block, so it gets a
// forwarding block. Its phi input %a is overwritten by the inline swap, and
// %i2 is an expression name that the inline copy into %i also receives.
const char *SwapExitSrc = R"(
func @f(%n:i64) -> i64 {
^e:
  %a0:i64 = loadi 1
  %b0:i64 = loadi 2
  %i0:i64 = loadi 0
  cbr %n, ^h, ^j
^h:
  %a:i64 = phi [%a0, ^e], [%b, ^h]
  %b:i64 = phi [%b0, ^e], [%a, ^h]
  %i:i64 = phi [%i0, ^e], [%i2, ^h]
  %one:i64 = loadi 1
  %i2:i64 = add %i, %one
  %c:i64 = cmplt %i2, %n
  cbr %c, ^h, ^j
^j:
  %x:i64 = phi [%a0, ^e], [%a, ^h]
  %y:i64 = phi [%i0, ^e], [%i2, ^h]
  %ten:i64 = loadi 10
  %m:i64 = mul %x, %ten
  %r:i64 = add %m, %y
  ret %r
}
)";

/// Leaves SSA form in SwapExitSrc with \p LeaveSSA and checks the capture
/// rule in the forwarding block of ^h -> ^j: %x reads a temporary that ^h
/// copies from %a beside the swap, %y reads the inline variable %i; and the
/// function computes what it did before.
void expectExitCaptures(const std::function<void(Function &)> &LeaveSSA) {
  auto M = parse(SwapExitSrc);
  Function &F = *M->Functions[0];
  const BasicBlock &H = *F.block(1);
  Reg A = H.Insts[0].Dst, I = H.Insts[2].Dst;
  Reg X = F.block(2)->Insts[0].Dst, Y = F.block(2)->Insts[1].Dst;
  std::vector<int64_t> Before;
  for (int64_t N = 0; N <= 5; ++N)
    Before.push_back(run(F, N).ReturnValue.I);

  LeaveSSA(F);
  ASSERT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty()) << printFunction(F);
  const BasicBlock *Fwd = nullptr;
  F.forEachBlock([&](const BasicBlock &B) {
    if (B.label() == "h_j")
      Fwd = &B;
  });
  ASSERT_NE(Fwd, nullptr) << printFunction(F);
  Reg XSrc = NoReg, YSrc = NoReg;
  for (const Instruction &C : Fwd->Insts) {
    if (C.isCopy() && C.Dst == X)
      XSrc = C.Operands[0];
    if (C.isCopy() && C.Dst == Y)
      YSrc = C.Operands[0];
  }
  ASSERT_NE(XSrc, NoReg) << printFunction(F);
  EXPECT_NE(XSrc, A) << printFunction(F);
  bool Captured = false;
  for (const Instruction &C : F.block(1)->Insts)
    Captured |= C.isCopy() && C.Dst == XSrc && C.Operands[0] == A;
  EXPECT_TRUE(Captured) << printFunction(F);
  EXPECT_EQ(YSrc, I) << printFunction(F);

  for (int64_t N = 0; N <= 5; ++N) {
    ExecResult After = run(F, N);
    ASSERT_FALSE(After.Trapped) << After.TrapReason;
    EXPECT_EQ(After.ReturnValue.I, Before[size_t(N)]) << "N=" << N;
  }
}

TEST(PhiCopyPlacement, DestroyCapturesWhatTheSwapOverwrites) {
  expectExitCaptures([](Function &F) { runPass(F, SSADestroyPass()); });
}

TEST(PhiCopyPlacement, ForwardPropCapturesWhatTheSwapOverwrites) {
  expectExitCaptures([](Function &F) {
    RankMap Ranks = RankMap::compute(F, CFG::compute(F));
    runPass(F, ForwardPropPass(Ranks));
  });
}

// ^u never runs, and neither do the two phi blocks it branches to. The
// dominator tree numbers unreachable blocks alike, so each edge among them
// looks like a back edge, and with no destination needed on a sibling
// successor every group stays inline: no forwarding block.
const char *UnreachablePhiSrc = R"(
func @f(%n:i64) -> i64 {
^e:
  %r:i64 = loadi 7
  ret %r
^u:
  %b0:i64 = loadi 2
  cbr %n, ^v, ^w
^v:
  %x:i64 = phi [%b0, ^u], [%x2, ^v]
  %one:i64 = loadi 1
  %x2:i64 = add %x, %one
  cbr %x2, ^v, ^w
^w:
  %z:i64 = phi [%b0, ^u], [%x2, ^v]
  ret %z
}
)";

TEST(PhiCopyPlacement, ForwardPropPlacesPhisOfUnreachableBlocks) {
  auto M = parse(UnreachablePhiSrc);
  Function &F = *M->Functions[0];
  unsigned Blocks = F.numBlocks();
  RankMap Ranks = RankMap::compute(F, CFG::compute(F));
  EXPECT_EQ(runPassStat(F, "phis_removed", ForwardPropPass(Ranks)), 2u);
  EXPECT_EQ(countPhis(F), 0u);
  EXPECT_EQ(F.numBlocks(), Blocks) << printFunction(F);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty()) << printFunction(F);
  ExecResult R = run(F, 1);
  ASSERT_FALSE(R.Trapped) << R.TrapReason;
  EXPECT_EQ(R.ReturnValue.I, 7);
}

TEST(PhiCopyPlacement, LaterOfTwoPhisDefiningOneRegisterWins) {
  // Relaxed input may define %x with two phis; as in the interpreter the
  // later one wins, so destruction copies only its inputs.
  const char *Src = R"(
func @f(%n:i64) -> i64 {
^e:
  %a:i64 = loadi 3
  %b:i64 = loadi 5
  cbr %n, ^l, ^r
^l:
  br ^j
^r:
  br ^j
^j:
  %x:i64 = phi [%a, ^l], [%b, ^r]
  %x:i64 = phi [%b, ^l], [%a, ^r]
  ret %x
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  ASSERT_EQ(run(F, 1).ReturnValue.I, 5);
  ASSERT_EQ(run(F, 0).ReturnValue.I, 3);
  runPass(F, SSADestroyPass());
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty()) << printFunction(F);
  EXPECT_EQ(run(F, 1).ReturnValue.I, 5) << printFunction(F);
  EXPECT_EQ(run(F, 0).ReturnValue.I, 3) << printFunction(F);
}

} // namespace
