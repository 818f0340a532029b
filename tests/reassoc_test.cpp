//===- tests/reassoc_test.cpp - Ranks, forward prop, reassociation --------===//

#include "analysis/CFG.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace epre;
using epre::test::runPass;
using epre::test::runPassCounters;
using epre::test::runPassStat;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

// The paper's rank rules: constants rank 0, parameters rank 1 (the entry
// block's rank), loop phis/loads get the loop block's rank, expressions
// take the max of their operands.
TEST(Ranks, ComputedOnSSA) {
  auto M = parse(R"(
func @f(%p:f64, %q:i64) -> f64 {
^e:
  %c:f64 = loadf 2.5
  %inv:f64 = add %p, %c
  br ^l
^l:
  %v:f64 = phi [%c, ^e], [%w, ^l]
  %w:f64 = add %v, %inv
  %m:f64 = load %q
  %mm:f64 = add %m, %w
  %t:i64 = loadi 1
  cbr %t, ^l, ^x
^x:
  ret %w
}
)");
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  RankMap Ranks = RankMap::compute(F, G);
  const BasicBlock *E = F.block(0);
  const BasicBlock *L = F.block(1);
  unsigned EntryRank = Ranks.blockRank(0);
  unsigned LoopRank = Ranks.blockRank(1);
  EXPECT_EQ(EntryRank, 1u);
  EXPECT_GT(LoopRank, EntryRank);

  EXPECT_EQ(Ranks.rank(F.params()[0]), EntryRank);     // parameter
  EXPECT_EQ(Ranks.rank(E->Insts[0].Dst), 0u);          // constant
  EXPECT_EQ(Ranks.rank(E->Insts[1].Dst), EntryRank);   // p + c
  EXPECT_EQ(Ranks.rank(L->Insts[0].Dst), LoopRank);    // phi
  EXPECT_EQ(Ranks.rank(L->Insts[1].Dst), LoopRank);    // loop-variant add
  EXPECT_EQ(Ranks.rank(L->Insts[2].Dst), LoopRank);    // load
  EXPECT_EQ(Ranks.rank(L->Insts[4].Dst), 0u);          // loadi in loop
}

TEST(ForwardProp, LocalizesExpressionsAndRemovesPhis) {
  auto M = parse(R"(
func @f(%a:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  br ^l
^l:
  %s:i64 = phi [%z, ^e], [%s2, ^l]
  %i:i64 = phi [%z, ^e], [%i2, ^l]
  %t:i64 = add %a, %i
  %s2:i64 = add %s, %t
  %one:i64 = loadi 1
  %i2:i64 = add %i, %one
  %c:i64 = cmplt %i2, %n
  cbr %c, ^l, ^x
^x:
  ret %s2
}
)");
  Function &F = *M->Functions[0]; // hand-written SSA
  CFG G = CFG::compute(F);
  RankMap Ranks = RankMap::compute(F, G);
  StatsRegistry S = runPassCounters(F, ForwardPropPass(Ranks));
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
      << printFunction(F);
  EXPECT_GT(S.get("fwdprop.phis_removed"), 0u);
  EXPECT_GE(S.get("fwdprop.ops_after"),
            S.get("fwdprop.ops_before")); // duplication, not shrinkage

  // The §5.1 property: every use of an expression result is preceded by a
  // definition in the same block.
  F.forEachBlock([&](const BasicBlock &B) {
    std::set<Reg> Defined;
    std::set<Reg> ExprDefs;
    F.forEachBlock([&](const BasicBlock &BB) {
      for (const Instruction &I : BB.Insts)
        if (I.hasDst() && I.isExpression())
          ExprDefs.insert(I.Dst);
    });
    for (const Instruction &I : B.Insts) {
      for (Reg Op : I.Operands) {
        if (ExprDefs.count(Op)) {
          EXPECT_TRUE(Defined.count(Op))
              << "expression %r" << Op << " used in ^" << B.label()
              << " without local def\n"
              << printFunction(F);
        }
      }
      if (I.hasDst())
        Defined.insert(I.Dst);
    }
  });
}

TEST(ForwardProp, PreservesBehaviour) {
  const char *Src = R"(
func @f(%a:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  br ^l
^l:
  %s:i64 = phi [%z, ^e], [%s2, ^l]
  %i:i64 = phi [%z, ^e], [%i2, ^l]
  %t:i64 = mul %a, %i
  %s2:i64 = add %s, %t
  %one:i64 = loadi 1
  %i2:i64 = add %i, %one
  %c:i64 = cmplt %i2, %n
  cbr %c, ^l, ^x
^x:
  ret %s2
}
)";
  for (int64_t N : {1, 2, 10}) {
    auto M = parse(Src);
    Function &F = *M->Functions[0];
    MemoryImage Mem(0);
    int64_t Before =
        interpret(F, {RtValue::ofI(3), RtValue::ofI(N)}, Mem).ReturnValue.I;
    CFG G = CFG::compute(F);
    RankMap Ranks = RankMap::compute(F, G);
    runPass(F, ForwardPropPass(Ranks));
    int64_t After =
        interpret(F, {RtValue::ofI(3), RtValue::ofI(N)}, Mem).ReturnValue.I;
    EXPECT_EQ(Before, After) << "N=" << N;
  }
}

/// A single block computing %r1 * (N + 1) through N dependent adds: the
/// return value's expression tree is N levels deep.
std::string addChain(unsigned N) {
  std::string S = "func @chain(%r1:i64) -> i64 {\n^b0:\n";
  for (unsigned R = 2; R <= N + 1; ++R)
    S += strprintf("  %%r%u:i64 = add %%r%u, %%r1\n", R, R - 1);
  return S + strprintf("  ret %%r%u\n}\n", N + 1);
}

/// Forward propagation clones and scans trees with its own stacks, so a
/// 30,000-add dependence chain fits in 256 KiB of thread stack.
TEST(ForwardProp, DeepDependenceChainFitsASmallThreadStack) {
  const unsigned N = 30000;
  auto M = parse(addChain(N).c_str());
  Function &F = *M->Functions[0];
  uint64_t Cloned = 0;
  test::runOnStack(256 * 1024, [&] {
    runPass(F, SSABuildPass());
    CFG G = CFG::compute(F);
    RankMap Ranks = RankMap::compute(F, G);
    Cloned = runPassStat(F, "trees_cloned", ForwardPropPass(Ranks));
  });
  EXPECT_EQ(Cloned, N);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  EXPECT_EQ(test::runOn(F, 3), 3 * int64_t(N + 1));
}

TEST(NormalizeNegation, RewritesSubToAddNeg) {
  auto M = parse(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %d:i64 = sub %a, %b
  ret %d
}
)");
  Function &F = *M->Functions[0];
  RankMap Ranks;
  Ranks.setRank(F.params()[0], 1);
  Ranks.setRank(F.params()[1], 1);
  ReassociateOptions RO;
  unsigned N = unsigned(runPassStat(F, "rewritten", NegNormPass(Ranks, RO)));
  EXPECT_EQ(N, 1u);
  const BasicBlock *E = F.entry();
  ASSERT_EQ(E->Insts.size(), 3u);
  EXPECT_EQ(E->Insts[0].Op, Opcode::Neg);
  EXPECT_EQ(E->Insts[1].Op, Opcode::Add);
  EXPECT_TRUE(verifyFunction(F).empty());
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(10), RtValue::ofI(4)}, Mem)
                .ReturnValue.I,
            6);
}

TEST(Reassociate, SortsByRank) {
  // (((v + a) + c1) + c2): constants must sort to the front, the parameter
  // next, the "variant" v last.
  auto M = parse(R"(
func @f(%a:i64, %v:i64) -> i64 {
^e:
  %c1:i64 = loadi 10
  %c2:i64 = loadi 20
  %t1:i64 = add %v, %a
  %t2:i64 = add %t1, %c1
  %t3:i64 = add %t2, %c2
  ret %t3
}
)");
  Function &F = *M->Functions[0];
  RankMap Ranks;
  Ranks.setRank(F.params()[0], 1); // a: rank 1
  Ranks.setRank(F.params()[1], 5); // v: pretend loop-variant
  const BasicBlock *E = F.entry();
  Ranks.setRank(E->Insts[0].Dst, 0);
  Ranks.setRank(E->Insts[1].Dst, 0);
  Ranks.setRank(E->Insts[2].Dst, 5);
  Ranks.setRank(E->Insts[3].Dst, 5);
  Ranks.setRank(E->Insts[4].Dst, 5);

  ReassociateOptions RO;
  EXPECT_TRUE(runPassStat(F, "changed", ReassociatePass(Ranks, RO)));
  // First add must combine the two constants.
  const Instruction *FirstAdd = nullptr;
  for (const Instruction &I : F.entry()->Insts)
    if (I.Op == Opcode::Add) {
      FirstAdd = &I;
      break;
    }
  ASSERT_NE(FirstAdd, nullptr);
  EXPECT_EQ(Ranks.rank(FirstAdd->Operands[0]), 0u);
  EXPECT_EQ(Ranks.rank(FirstAdd->Operands[1]), 0u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(100), RtValue::ofI(1000)}, Mem)
                .ReturnValue.I,
            1130);
}

TEST(Reassociate, RespectsNonAssociativeOps) {
  auto M = parse(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %t1:i64 = shl %a, %b
  %t2:i64 = shl %t1, %b
  ret %t2
}
)");
  Function &F = *M->Functions[0];
  RankMap Ranks;
  Ranks.setRank(F.params()[0], 2);
  Ranks.setRank(F.params()[1], 1);
  for (const Instruction &I : F.entry()->Insts)
    if (I.hasDst())
      Ranks.setRank(I.Dst, 2);
  ReassociateOptions RO;
  EXPECT_FALSE(runPassStat(F, "changed", ReassociatePass(Ranks, RO)));   // shifts are untouchable
}

TEST(Reassociate, FPGatedByOption) {
  const char *Src = R"(
func @f(%a:f64, %v:f64) -> f64 {
^e:
  %t1:f64 = add %v, %a
  %t2:f64 = add %t1, %a
  ret %t2
}
)";
  auto Setup = [&](Function &F, RankMap &Ranks) {
    Ranks.setRank(F.params()[0], 1);
    Ranks.setRank(F.params()[1], 5);
    for (const Instruction &I : F.entry()->Insts)
      if (I.hasDst())
        Ranks.setRank(I.Dst, 5);
  };
  auto M1 = parse(Src);
  RankMap R1;
  Setup(*M1->Functions[0], R1);
  ReassociateOptions NoFP;
  NoFP.AllowFPReassoc = false;
  EXPECT_FALSE(runPassStat(*M1->Functions[0], "changed", ReassociatePass(R1, NoFP)));

  auto M2 = parse(Src);
  RankMap R2;
  Setup(*M2->Functions[0], R2);
  ReassociateOptions FP;
  FP.AllowFPReassoc = true;
  EXPECT_TRUE(runPassStat(*M2->Functions[0], "changed", ReassociatePass(R2, FP)));
}

TEST(Distribute, LowRankMultiplierOverHighRankSum) {
  // w * ((c + d) + e) with ranks w,c,d=1 and e=2 must become
  // w*(c+d) + w*e (the paper's partial-distribution example).
  auto M = parse(R"(
func @f(%w:i64, %c:i64, %d:i64, %e2:i64) -> i64 {
^en:
  %s1:i64 = add %c, %d
  %s2:i64 = add %s1, %e2
  %p:i64 = mul %w, %s2
  ret %p
}
)");
  Function &F = *M->Functions[0];
  RankMap Ranks;
  Ranks.setRank(F.params()[0], 1);
  Ranks.setRank(F.params()[1], 1);
  Ranks.setRank(F.params()[2], 1);
  Ranks.setRank(F.params()[3], 2);
  const BasicBlock *E = F.entry();
  Ranks.setRank(E->Insts[0].Dst, 1);
  Ranks.setRank(E->Insts[1].Dst, 2);
  Ranks.setRank(E->Insts[2].Dst, 2);

  ReassociateOptions RO;
  RO.Distribute = true;
  EXPECT_TRUE(runPassStat(F, "changed", ReassociatePass(Ranks, RO)));
  // Two multiplies now (one per rank group).
  unsigned Muls = 0;
  for (const Instruction &I : F.entry()->Insts)
    Muls += I.Op == Opcode::Mul;
  EXPECT_EQ(Muls, 2u);
  // And a product of rank 1 exists (the hoistable part).
  bool FoundLowMul = false;
  for (const Instruction &I : F.entry()->Insts)
    if (I.Op == Opcode::Mul && Ranks.rank(I.Dst) == 1)
      FoundLowMul = true;
  EXPECT_TRUE(FoundLowMul);
  MemoryImage Mem(0);
  // 3 * (5 + 7 + 11) = 69
  EXPECT_EQ(interpret(F,
                      {RtValue::ofI(3), RtValue::ofI(5), RtValue::ofI(7),
                       RtValue::ofI(11)},
                      Mem)
                .ReturnValue.I,
            69);
}

TEST(Distribute, NoDistributionWithoutRankBenefit) {
  // All operands the same rank: distribution only adds multiplies.
  auto M = parse(R"(
func @f(%w:i64, %c:i64, %d:i64) -> i64 {
^en:
  %s1:i64 = add %c, %d
  %p:i64 = mul %w, %s1
  ret %p
}
)");
  Function &F = *M->Functions[0];
  RankMap Ranks;
  for (Reg P : F.params())
    Ranks.setRank(P, 1);
  const BasicBlock *E = F.entry();
  Ranks.setRank(E->Insts[0].Dst, 1);
  Ranks.setRank(E->Insts[1].Dst, 1);
  ReassociateOptions RO;
  RO.Distribute = true;
  runPass(F, ReassociatePass(Ranks, RO));
  unsigned Muls = 0;
  for (const Instruction &I : F.entry()->Insts)
    Muls += I.Op == Opcode::Mul;
  EXPECT_EQ(Muls, 1u);
}

} // namespace
