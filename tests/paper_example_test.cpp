//===- tests/paper_example_test.cpp - Figures 2-10 as invariants ----------===//
///
/// The running example of the paper (FUNCTION FOO, Figure 2) walked phase
/// by phase, asserting the properties each figure demonstrates.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "frontend/Lower.h"
#include "gvn/ValueNumbering.h"
#include "interp/Interpreter.h"
#include "ir/ExprKey.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/SimplifyCFG.h"
#include "pipeline/Pipeline.h"
#include "pre/PRE.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

using namespace epre;
using epre::test::runPass;
using epre::test::runPassCounters;
using epre::test::runPassStat;

namespace {

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

double runFoo(Function &F, uint64_t *Ops = nullptr) {
  MemoryImage Mem(0);
  ExecResult R =
      interpret(F, {RtValue::ofF(1.0), RtValue::ofF(2.0)}, Mem);
  EXPECT_TRUE(R.ok()) << R.TrapReason;
  if (Ops)
    *Ops = R.DynOps;
  return R.ReturnValue.F;
}

TEST(PaperExample, PhaseByPhase) {
  LowerResult LR = compileMiniFortran(FooSource, NamingMode::Naive);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  Function &F = *LR.M->find("foo");

  // Figure 3: the naive translation. Reference semantics.
  uint64_t OpsNaive;
  double Expected = runFoo(F, &OpsNaive);
  EXPECT_EQ(Expected, 5341.0);

  // Figure 4: pruned SSA, copies folded into the phis.
  runPass(F, SSABuildPass());
  ASSERT_TRUE(verifyFunction(F, SSAMode::SSA).empty()) << printFunction(F);
  unsigned Phis = 0, Copies = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      Phis += I.isPhi();
      Copies += I.isCopy();
    }
  });
  // The loop carries s and i; the exit merges s. "Minimal SSA would have
  // required many more phi-nodes."
  EXPECT_EQ(Phis, 3u);
  EXPECT_EQ(Copies, 0u); // folded
  EXPECT_EQ(runFoo(F), Expected);

  // Ranks: "loop-invariant expressions are of lower rank than
  // loop-variant expressions".
  CFG G = CFG::compute(F);
  RankMap Ranks = RankMap::compute(F, G);
  std::map<unsigned, unsigned> RankHistogram;
  unsigned LoopBlock = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    if (B.firstNonPhi() > 0)
      for (BlockId S : B.successors())
        if (S == B.id())
          LoopBlock = B.id();
  });
  unsigned EntryRank = Ranks.blockRank(0);
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (!I.hasDst())
        continue;
      ++RankHistogram[Ranks.rank(I.Dst)];
      if (I.Op == Opcode::LoadI || I.Op == Opcode::LoadF) {
        EXPECT_EQ(Ranks.rank(I.Dst), 0u);
      }
    }
  });
  EXPECT_GT(RankHistogram[0], 0u);          // constants exist
  EXPECT_GT(RankHistogram[EntryRank], 0u);  // invariants exist
  // x = y + z is invariant: its rank equals the entry block's.
  bool FoundInvariantAdd = false;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::Add && I.Ty == Type::F64 &&
          Ranks.rank(I.Dst) == EntryRank)
        FoundInvariantAdd = true;
  });
  EXPECT_TRUE(FoundInvariantAdd);

  // Figures 5-6: forward propagation. No phis remain; every expression
  // use has a local definition (§5.1); behaviour unchanged.
  StatsRegistry FP = runPassCounters(F, ForwardPropPass(Ranks));
  ASSERT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
      << printFunction(F);
  EXPECT_EQ(FP.get("fwdprop.phis_removed"), 3u);
  EXPECT_GT(FP.get("fwdprop.ops_after"),
            FP.get("fwdprop.ops_before")); // Table 2: code grows
  EXPECT_EQ(runFoo(F), Expected);

  // Figure 7: reassociation sorts low-ranked operands together.
  ReassociateOptions RO;
  runPass(F, NegNormPass(Ranks, RO));
  runPass(F, ReassociatePass(Ranks, RO));
  ASSERT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  EXPECT_EQ(runFoo(F), Expected);

  // Figure 8: value numbering — lexically identical expressions now share
  // names ("Each lexically-identical expression will have the same name").
  runPass(F, GVNPass());
  ASSERT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  EXPECT_EQ(runFoo(F), Expected);
  std::map<ExprKey, std::set<Reg>, bool (*)(const ExprKey &, const ExprKey &)>
      NamesPerExpr([](const ExprKey &A, const ExprKey &B) {
        return A.hash() < B.hash();
      });
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.hasDst() && I.isExpression())
        NamesPerExpr[makeExprKey(I)].insert(I.Dst);
  });
  for (const auto &[K, Names] : NamesPerExpr)
    EXPECT_EQ(Names.size(), 1u) << "expression with multiple names";

  // Figure 9: PRE hoists the invariants and deletes redundancies.
  unsigned Deleted = 0;
  for (int I = 0; I < 8; ++I) {
    PREStats S = runPass(F, PREPass()).lastStats();
    Deleted += S.Deleted;
    if (!S.Inserted && !S.Deleted)
      break;
  }
  EXPECT_GT(Deleted, 0u);
  ASSERT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  EXPECT_EQ(runFoo(F), Expected);

  // Figure 10: coalescing removes the copies.
  runPass(F, DCEPass());
  unsigned Coalesced =
      unsigned(runPassStat<CopyCoalescingPass>(F, "copies_removed"));
  EXPECT_GT(Coalesced, 0u);
  runPass(F, DCEPass());
  runPass(F, SimplifyCFGPass());
  ASSERT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());

  // The final claim: "reduced the length of the loop by 1 operation
  // without increasing the length of any path through the routine."
  uint64_t OpsFinal;
  EXPECT_EQ(runFoo(F, &OpsFinal), Expected);
  EXPECT_LT(OpsFinal, OpsNaive);
  (void)LoopBlock;
}

TEST(PaperExample, ZeroTripAndNegativePaths) {
  // The transformations must also hold on the zero-trip path (x > 100).
  for (auto [Y, Z] : {std::pair{200.0, 10.0}, {-5.0, 2.0}, {98.0, 1.0}}) {
    LowerResult LR = compileMiniFortran(FooSource, NamingMode::Naive);
    ASSERT_TRUE(LR.ok());
    Function &F = *LR.M->find("foo");
    MemoryImage Mem(0);
    double Before = interpret(F, {RtValue::ofF(Y), RtValue::ofF(Z)}, Mem)
                        .ReturnValue.F;
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    optimizeFunction(F, PO);
    ExecResult R = interpret(F, {RtValue::ofF(Y), RtValue::ofF(Z)}, Mem);
    ASSERT_TRUE(R.ok());
    EXPECT_NEAR(R.ReturnValue.F, Before, 1e-9 * (1 + std::fabs(Before)))
        << "y=" << Y << " z=" << Z;
  }
}

} // namespace
