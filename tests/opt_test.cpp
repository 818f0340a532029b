//===- tests/opt_test.cpp - Baseline optimizer passes ---------------------===//

#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/ConstantPropagation.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/Peephole.h"
#include "opt/SimplifyCFG.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace epre;
using epre::test::ForwardingChainIntoPhi;
using epre::test::runOn;
using epre::test::runPass;
using epre::test::runPassStat;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

unsigned countOp(const Function &F, Opcode Op) {
  unsigned N = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      N += I.Op == Op;
  });
  return N;
}

unsigned countInsts(const Function &F) { return F.staticOperationCount(); }

// --- Constant propagation --------------------------------------------------

TEST(ConstProp, FoldsThroughArithmetic) {
  auto M = parse(R"(
func @f() -> i64 {
^e:
  %a:i64 = loadi 6
  %b:i64 = loadi 7
  %c:i64 = mul %a, %b
  %d:i64 = add %c, %c
  ret %d
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SCCPPass>(F, "changed"));
  const BasicBlock *E = F.entry();
  EXPECT_EQ(E->Insts[3].Op, Opcode::LoadI);
  EXPECT_EQ(E->Insts[3].IImm, 84);
}

TEST(ConstProp, FoldsBranchesAndPrunesPaths) {
  // The condition is constant; the false arm assigns a non-constant, but
  // with conditional propagation %v is still known at the join.
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %one:i64 = loadi 1
  cbr %one, ^a, ^b
^a:
  %v:i64 = loadi 10
  br ^j
^b:
  %v:i64 = copy %x
  br ^j
^j:
  %r:i64 = add %v, %v
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SCCPPass>(F, "changed"));
  // Branch folded.
  EXPECT_EQ(countOp(F, Opcode::Cbr), 0u);
  // The add folded to 20 despite the (unreachable) other arm.
  bool Found = false;
  for (const Instruction &I : F.block(3)->Insts)
    if (I.hasDst() && I.Op == Opcode::LoadI && I.IImm == 20)
      Found = true;
  EXPECT_TRUE(Found) << printFunction(F);
}

TEST(ConstProp, DoesNotFoldTrappingDivision) {
  auto M = parse(R"(
func @f() -> i64 {
^e:
  %a:i64 = loadi 1
  %z:i64 = loadi 0
  %d:i64 = div %a, %z
  ret %d
}
)");
  Function &F = *M->Functions[0];
  runPass(F, SCCPPass());
  EXPECT_EQ(countOp(F, Opcode::Div), 1u); // preserved; still traps at run time
}

TEST(ConstProp, LoopConstantConverges) {
  auto M = parse(R"(
func @f(%n:i64) -> i64 {
^e:
  %k:i64 = loadi 5
  %i:i64 = loadi 0
  br ^l
^l:
  %k:i64 = loadi 5
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  %r:i64 = add %k, %k
  ret %r
}
)");
  Function &F = *M->Functions[0];
  runPass(F, SCCPPass());
  bool Folded = false;
  for (const Instruction &I : F.block(2)->Insts)
    if (I.Op == Opcode::LoadI && I.IImm == 10)
      Folded = true;
  EXPECT_TRUE(Folded) << printFunction(F);
}

// --- Peephole ---------------------------------------------------------------

TEST(Peephole, AlgebraicIdentities) {
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %a:i64 = add %x, %z
  %o:i64 = loadi 1
  %b:i64 = mul %a, %o
  %c:i64 = sub %b, %z
  %d:i64 = xor %c, %z
  ret %d
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<PeepholePass>(F, "changed"));
  // All four ops reduce to copies of %x; no arithmetic remains.
  EXPECT_EQ(countOp(F, Opcode::Add), 0u);
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  EXPECT_EQ(countOp(F, Opcode::Sub), 0u);
  EXPECT_EQ(countOp(F, Opcode::Xor), 0u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(99)}, Mem).ReturnValue.I, 99);
}

TEST(Peephole, ReconstructsSubFromAddNeg) {
  // The pass the paper relies on after negation normalization.
  auto M = parse(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %n:i64 = neg %y
  %r:i64 = add %x, %n
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<PeepholePass>(F, "changed"));
  EXPECT_EQ(countOp(F, Opcode::Sub), 1u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(10), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            7);
}

TEST(Peephole, NoUnsafeForwardingAcrossRedefinition) {
  // n = neg y; y redefined; add x, n must NOT become sub x, y.
  auto M = parse(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %n:i64 = neg %y
  %hundred:i64 = loadi 100
  %y:i64 = copy %hundred
  %r:i64 = add %x, %n
  ret %r
}
)");
  Function &F = *M->Functions[0];
  runPass(F, PeepholePass());
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(10), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            7);
}

TEST(Peephole, StrengthReducesPowerOfTwoMultiply) {
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %c:i64 = loadi 8
  %r:i64 = mul %x, %c
  ret %r
}
)");
  Function &F = *M->Functions[0];
  runPass(F, PeepholePass());
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  EXPECT_EQ(countOp(F, Opcode::Shl), 1u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(5)}, Mem).ReturnValue.I, 40);
}

TEST(Peephole, FloatIdentitiesAreBitExactOnly) {
  // x + 0.0 must NOT fold (x = -0.0 would change); x * 1.0 must fold.
  auto M = parse(R"(
func @f(%x:f64) -> f64 {
^e:
  %z:f64 = loadf 0.0
  %a:f64 = add %x, %z
  %o:f64 = loadf 1.0
  %b:f64 = mul %a, %o
  ret %b
}
)");
  Function &F = *M->Functions[0];
  runPass(F, PeepholePass());
  EXPECT_EQ(countOp(F, Opcode::Add), 1u); // kept
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u); // folded
  MemoryImage Mem(0);
  ExecResult R = interpret(F, {RtValue::ofF(-0.0)}, Mem);
  EXPECT_EQ(R.ReturnValue.F, 0.0);
  EXPECT_FALSE(std::signbit(R.ReturnValue.F)); // -0.0 + 0.0 == +0.0
}

TEST(Peephole, HoistsOneShiftAmountNextToADominatingMultiplier) {
  // %c is defined in the entry and multiplies in two arms: both shl's share
  // one `loadi 3`, placed right after %c's definition.
  auto M = parse(R"(
func @f(%x:i64, %p:i64) -> i64 {
^e:
  %c:i64 = loadi 8
  %z:i64 = loadi 0
  cbr %p, ^a, ^b
^a:
  %r:i64 = mul %x, %c
  br ^j
^b:
  %r:i64 = mul %c, %x
  br ^j
^j:
  %s:i64 = add %r, %z
  ret %s
}
)");
  Function &F = *M->Functions[0];
  runPass(F, PeepholePass());
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  ASSERT_EQ(countOp(F, Opcode::Shl), 2u);
  unsigned ShiftLoads = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      ShiftLoads += I.Op == Opcode::LoadI && I.IImm == 3;
  });
  EXPECT_EQ(ShiftLoads, 1u) << printFunction(F);
  const BasicBlock &E = *F.entry();
  ASSERT_GE(E.Insts.size(), 2u);
  EXPECT_EQ(E.Insts[0].Op, Opcode::LoadI);
  EXPECT_EQ(E.Insts[0].IImm, 8);
  const Instruction &Shift = E.Insts[1];
  EXPECT_EQ(Shift.Op, Opcode::LoadI);
  EXPECT_EQ(Shift.IImm, 3);
  for (BlockId Arm : {1u, 2u}) {
    const Instruction &Shl = F.block(Arm)->Insts[0];
    ASSERT_EQ(Shl.Op, Opcode::Shl) << printFunction(F);
    EXPECT_EQ(Shl.Operands[0], F.params()[0]);
    EXPECT_EQ(Shl.Operands[1], Shift.Dst);
  }
  for (int64_t P : {0, 1}) {
    MemoryImage Mem(0);
    EXPECT_EQ(interpret(F, {RtValue::ofI(5), RtValue::ofI(P)}, Mem)
                  .ReturnValue.I,
              40);
  }
}

TEST(Peephole, CrossBlockDefinitionIsSeenAsItWasWhenThePassStarted) {
  // The entry's `%n = neg %m` becomes `copy %y` (neg of neg). The use in
  // ^a still sees the original neg: `add %x, %n` becomes `sub %x, %m` and,
  // a round later, `add %x, %y`. Seen as the copy, it would stay unchanged.
  auto M = parse(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %m:i64 = neg %y
  %n:i64 = neg %m
  br ^a
^a:
  %r:i64 = add %x, %n
  ret %r
}
)");
  Function &F = *M->Functions[0];
  runPass(F, PeepholePass());
  const Instruction &N = F.entry()->Insts[1];
  EXPECT_EQ(N.Op, Opcode::Copy) << printFunction(F);
  const Instruction &R = F.block(1)->Insts[0];
  ASSERT_EQ(R.Op, Opcode::Add) << printFunction(F);
  EXPECT_EQ(R.Operands[0], F.params()[0]);
  EXPECT_EQ(R.Operands[1], F.params()[1]);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(10), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            13);
}

TEST(Peephole, XorOfIntegerComparisonWithOneInvertsIt) {
  auto M = parse(R"(
func @i(%a:i64, %b:i64) -> i64 {
^e:
  %c:i64 = cmplt %a, %b
  %one:i64 = loadi 1
  %r:i64 = xor %c, %one
  ret %r
}
func @f(%a:f64, %b:f64) -> i64 {
^e:
  %c:i64 = cmplt %a, %b
  %one:i64 = loadi 1
  %r:i64 = xor %c, %one
  ret %r
}
)");
  Function &I = *M->find("i");
  runPass(I, PeepholePass());
  const Instruction &R = I.entry()->Insts[2];
  ASSERT_EQ(R.Op, Opcode::CmpGe) << printFunction(I);
  EXPECT_EQ(R.Ty, Type::I64);
  EXPECT_EQ(R.Operands[0], I.params()[0]);
  EXPECT_EQ(R.Operands[1], I.params()[1]);
  // !(a < b) is not a >= b when either is NaN.
  Function &Fl = *M->find("f");
  runPass(Fl, PeepholePass());
  EXPECT_EQ(countOp(Fl, Opcode::Xor), 1u) << printFunction(Fl);
  EXPECT_EQ(countOp(Fl, Opcode::CmpGe), 0u);
}

TEST(Peephole, ShiftAmountRegisterItCreatedFoldsInALaterRound) {
  // Round 1 turns %s into `sub %x, %x` and the multiply into `shl %s, %k`
  // with a new `%k = loadi 3`; round 2 folds %s to 0, and the shl folds
  // only if %k, a register the pass made, is known as a local definition.
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %n:i64 = neg %x
  %s:i64 = add %x, %n
  %c:i64 = loadi 8
  %m:i64 = mul %s, %c
  ret %m
}
)");
  Function &F = *M->Functions[0];
  runPass(F, PeepholePass());
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  EXPECT_EQ(countOp(F, Opcode::Shl), 0u) << printFunction(F);
  const std::vector<Instruction> &Insts = F.entry()->Insts;
  const Instruction &Ret = Insts.back();
  auto Def =
      std::find_if(Insts.begin(), Insts.end(), [&](const Instruction &I) {
        return I.hasDst() && I.Dst == Ret.Operands[0];
      });
  ASSERT_NE(Def, Insts.end());
  EXPECT_EQ(Def->Op, Opcode::LoadI);
  EXPECT_EQ(Def->IImm, 0);
  EXPECT_EQ(runOn(F, 7), 0);
}

// --- DCE ---------------------------------------------------------------------

TEST(DCE, RemovesDeadChains) {
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %a:i64 = loadi 1
  %b:i64 = add %a, %x
  %c:i64 = mul %b, %b
  %r:i64 = add %x, %x
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<DCEPass>(F, "changed"));
  EXPECT_EQ(countInsts(F), 2u); // the live add and the ret
}

TEST(DCE, KeepsSideEffects) {
  auto M = parse(R"(
func @f(%a:i64, %v:f64) {
^e:
  %dead:f64 = add %v, %v
  store %v -> %a
  ret
}
)");
  Function &F = *M->Functions[0];
  runPass(F, DCEPass());
  EXPECT_EQ(countOp(F, Opcode::Store), 1u);
  EXPECT_EQ(countOp(F, Opcode::Add), 0u);
}

TEST(DCE, DeadAcrossLoop) {
  // A value computed in a loop and never observed must vanish entirely.
  auto M = parse(R"(
func @f(%n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  %s:i64 = add %s, %i
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  %r:i64 = loadi 42
  ret %r
}
)");
  Function &F = *M->Functions[0];
  runPass(F, DCEPass());
  // The s accumulation is dead; the induction variable is still needed.
  bool HasS = false;
  for (const Instruction &I : F.block(1)->Insts)
    if (I.Op == Opcode::Add && I.Dst == I.Operands[0] &&
        I.Operands[1] != I.Operands[0])
      HasS = countOp(F, Opcode::Add) > 1;
  EXPECT_EQ(countOp(F, Opcode::Add), 1u) << printFunction(F);
  (void)HasS;
}

// --- Coalescing ---------------------------------------------------------------

TEST(Coalesce, MergesNonInterferingCopy) {
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %t:i64 = add %x, %x
  %u:i64 = copy %t
  %r:i64 = add %u, %u
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_EQ(runPassStat<CopyCoalescingPass>(F, "copies_removed"), 1u);
  EXPECT_EQ(countOp(F, Opcode::Copy), 0u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(3)}, Mem).ReturnValue.I, 12);
}

TEST(Coalesce, KeepsInterferingCopy) {
  // u <- t, then both used: merging would lose t's value... here t is
  // redefined while u lives, so they interfere.
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %t:i64 = add %x, %x
  %u:i64 = copy %t
  %t:i64 = add %t, %u
  %r:i64 = add %t, %u
  ret %r
}
)");
  Function &F = *M->Functions[0];
  runPass(F, CopyCoalescingPass());
  MemoryImage Mem(0);
  // t=6,u=6,t=12,r=18
  EXPECT_EQ(interpret(F, {RtValue::ofI(3)}, Mem).ReturnValue.I, 18);
}

TEST(Coalesce, ParametersKeepTheirRegisters) {
  auto M = parse(R"(
func @f(%x:i64) -> i64 {
^e:
  %u:i64 = copy %x
  %r:i64 = add %u, %u
  ret %r
}
)");
  Function &F = *M->Functions[0];
  Reg P = F.params()[0];
  runPass(F, CopyCoalescingPass());
  EXPECT_EQ(F.params()[0], P);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(4)}, Mem).ReturnValue.I, 8);
}

// --- SimplifyCFG ---------------------------------------------------------------

TEST(SimplifyCFG, RemovesUnreachable) {
  auto M = parse(R"(
func @f() -> i64 {
^e:
  %r:i64 = loadi 1
  ret %r
^dead:
  %x:i64 = loadi 2
  ret %x
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  unsigned Blocks = 0;
  F.forEachBlock([&](BasicBlock &) { ++Blocks; });
  EXPECT_EQ(Blocks, 1u);
}

TEST(SimplifyCFG, ThreadsEmptyForwardingBlocks) {
  auto M = parse(R"(
func @f(%p:i64) -> i64 {
^e:
  cbr %p, ^fwd, ^b
^fwd:
  br ^t
^b:
  br ^t
^t:
  %r:i64 = loadi 3
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(1)}, Mem).ReturnValue.I, 3);
  unsigned Blocks = 0;
  F.forEachBlock([&](BasicBlock &) { ++Blocks; });
  EXPECT_LE(Blocks, 2u);
}

TEST(SimplifyCFG, MergesStraightLine) {
  auto M = parse(R"(
func @f() -> i64 {
^a:
  %x:i64 = loadi 1
  br ^b
^b:
  %y:i64 = loadi 2
  br ^c
^c:
  %r:i64 = add %x, %y
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  unsigned Blocks = 0;
  F.forEachBlock([&](BasicBlock &) { ++Blocks; });
  EXPECT_EQ(Blocks, 1u);
  EXPECT_EQ(countOp(F, Opcode::Br), 0u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {}, Mem).ReturnValue.I, 3);
}

TEST(SimplifyCFG, FoldsConstantBranch) {
  auto M = parse(R"(
func @f() -> i64 {
^e:
  %one:i64 = loadi 1
  cbr %one, ^a, ^b
^a:
  %x:i64 = loadi 10
  ret %x
^b:
  %y:i64 = loadi 20
  ret %y
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  EXPECT_EQ(countOp(F, Opcode::Cbr), 0u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {}, Mem).ReturnValue.I, 10);
}

TEST(SimplifyCFG, ThreadsChainIntoPhiWithoutStalePredecessors) {
  // Threading ^b2 from the graph read before the sweep would move the phi
  // entry onto ^b1, which the sweep has already bypassed and left dead.
  auto M = parse(ForwardingChainIntoPhi);
  Function &F = *M->Functions[0];
  EXPECT_EQ(runOn(F, 0), 2);
  EXPECT_EQ(runOn(F, 7), 1);
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  EXPECT_TRUE(verifyFunction(F, SSAMode::Relaxed).empty()) << printFunction(F);
  EXPECT_EQ(runOn(F, 0), 2) << printFunction(F);
  EXPECT_EQ(runOn(F, 7), 1) << printFunction(F);
}

TEST(SimplifyCFG, NeverMergesPhiEntriesOntoOneEdge) {
  // Threading ^x retargets ^e, so ^e's successors read before the sweep no
  // longer show that ^e already reaches ^t; threading ^y as well would
  // leave one cbr edge pair carrying two different phi values.
  auto M = parse(R"(
func @f(%c:i64) -> i64 {
^e:
  %a:i64 = loadi 1
  %b:i64 = loadi 2
  cbr %c, ^x, ^y
^x:
  br ^t
^y:
  br ^t
^t:
  %r:i64 = phi [%a, ^x], [%b, ^y]
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  EXPECT_TRUE(verifyFunction(F, SSAMode::Relaxed).empty()) << printFunction(F);
  EXPECT_EQ(runOn(F, 0), 2) << printFunction(F);
  EXPECT_EQ(runOn(F, 7), 1) << printFunction(F);
}

TEST(SimplifyCFG, CbrSameTargetsBecomesBr) {
  // Threading ^a retargets the cbr's first arm onto ^t, its other target;
  // the branch that would name ^t twice becomes br.
  auto M = parse(R"(
func @f(%p:i64) -> i64 {
^e:
  cbr %p, ^a, ^t
^a:
  br ^t
^t:
  %r:i64 = loadi 5
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_TRUE(runPassStat<SimplifyCFGPass>(F, "changed"));
  EXPECT_EQ(countOp(F, Opcode::Cbr), 0u);
  EXPECT_TRUE(verifyFunction(F).empty()) << printFunction(F);
  EXPECT_EQ(runOn(F, 0), 5);
  EXPECT_EQ(runOn(F, 1), 5);
}

} // namespace
