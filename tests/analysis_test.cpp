//===- tests/analysis_test.cpp - CFG, dominators, loops, liveness ---------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/ProfileInfo.h"
#include "instrument/Profile.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

using namespace epre;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

// A diamond with a self-loop on one arm:
//   e -> a -> j ;  e -> b -> j ;  b -> b
const char *DiamondLoop = R"(
func @f(%p:i64) {
^e:
  cbr %p, ^a, ^b
^a:
  br ^j
^b:
  cbr %p, ^b, ^j
^j:
  ret
}
)";

TEST(CFG, PredsSuccsRPO) {
  auto M = parse(DiamondLoop);
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  EXPECT_EQ(G.succs(0).size(), 2u);
  EXPECT_EQ(G.preds(0).size(), 0u);
  EXPECT_EQ(G.preds(3).size(), 2u); // j from a and b
  EXPECT_EQ(G.preds(2).size(), 2u); // b from e and itself
  ASSERT_EQ(G.rpo().size(), 4u);
  EXPECT_EQ(G.rpo()[0], 0u);
  // RPO numbers increase along forward edges.
  EXPECT_LT(G.rpoNumber(0), G.rpoNumber(1));
  EXPECT_LT(G.rpoNumber(0), G.rpoNumber(2));
  EXPECT_LT(G.rpoNumber(1), G.rpoNumber(3));
}

TEST(CFG, UnreachableBlocksExcluded) {
  auto M = parse(R"(
func @f() {
^e:
  ret
^dead:
  br ^dead2
^dead2:
  ret
}
)");
  CFG G = CFG::compute(*M->Functions[0]);
  EXPECT_TRUE(G.isReachable(0));
  EXPECT_FALSE(G.isReachable(1));
  EXPECT_FALSE(G.isReachable(2));
  EXPECT_EQ(G.rpo().size(), 1u);
  // Pred lists must not mention unreachable sources.
  EXPECT_TRUE(G.preds(2).empty());
}

TEST(Dominators, DiamondAndLoop) {
  auto M = parse(DiamondLoop);
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  DominatorTree DT = DominatorTree::compute(F, G);
  // Entry dominates everything.
  for (BlockId B : G.rpo())
    EXPECT_TRUE(DT.dominates(0, B));
  // Neither arm dominates the join.
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_FALSE(DT.dominates(2, 3));
  EXPECT_EQ(DT.idom(3), 0u);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  // Self-dominance is reflexive; strict is not.
  EXPECT_TRUE(DT.dominates(2, 2));
  EXPECT_FALSE(DT.strictlyDominates(2, 2));
}

TEST(Dominators, Frontiers) {
  auto M = parse(DiamondLoop);
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  DominatorTree DT = DominatorTree::compute(F, G);
  DominanceFrontier DF = DominanceFrontier::compute(F, G, DT);
  // DF(a) = {j}, DF(b) = {b, j} (b is its own frontier via the self loop).
  EXPECT_EQ(DF.frontier(1), std::vector<BlockId>{3});
  std::vector<BlockId> BF = DF.frontier(2);
  std::sort(BF.begin(), BF.end());
  EXPECT_EQ(BF, (std::vector<BlockId>{2, 3}));
  EXPECT_TRUE(DF.frontier(0).empty());
}

TEST(LoopInfo, SelfLoopAndNest) {
  auto M = parse(R"(
func @f(%p:i64) {
^e:
  br ^outer
^outer:
  br ^inner
^inner:
  cbr %p, ^inner, ^latch
^latch:
  cbr %p, ^outer, ^x
^x:
  ret
}
)");
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  DominatorTree DT = DominatorTree::compute(F, G);
  LoopInfo LI = LoopInfo::compute(F, G, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.loopDepth(0), 0u); // entry
  EXPECT_EQ(LI.loopDepth(1), 1u); // outer header
  EXPECT_EQ(LI.loopDepth(2), 2u); // inner
  EXPECT_EQ(LI.loopDepth(3), 1u); // latch
  EXPECT_EQ(LI.loopDepth(4), 0u); // exit
}

TEST(Liveness, StraightLine) {
  auto M = parse(R"(
func @f(%a:i64) -> i64 {
^e:
  %b:i64 = loadi 1
  %c:i64 = add %a, %b
  %d:i64 = add %c, %c
  ret %d
}
)");
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  Liveness L = Liveness::compute(F, G);
  // Only the parameter is live into the entry block.
  EXPECT_TRUE(L.isLiveIn(F.params()[0], 0));
  EXPECT_EQ(L.liveIn(0).size(), 1u);
  EXPECT_TRUE(L.liveOut(0).empty());
}

TEST(Liveness, AcrossBranchAndPhi) {
  auto M = parse(R"(
func @f(%p:i64, %x:i64, %y:i64) -> i64 {
^e:
  cbr %p, ^a, ^b
^a:
  %u:i64 = add %x, %x
  br ^j
^b:
  %v:i64 = add %y, %y
  br ^j
^j:
  %w:i64 = phi [%u, ^a], [%v, ^b]
  ret %w
}
)");
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  Liveness L = Liveness::compute(F, G);
  Reg X = F.params()[1], Y = F.params()[2];
  // x is live into arm a but not arm b.
  EXPECT_TRUE(L.isLiveIn(X, 1));
  EXPECT_FALSE(L.isLiveIn(X, 2));
  EXPECT_TRUE(L.isLiveIn(Y, 2));
  // Phi inputs are live out of their predecessor, not live into the join.
  const BasicBlock *A = F.block(1);
  Reg U = A->Insts[0].Dst;
  EXPECT_TRUE(std::ranges::binary_search(L.liveOut(1), U));
  EXPECT_FALSE(L.isLiveIn(U, 3));
}

TEST(EdgeSplitting, SplitsOnlyCriticalEdges) {
  auto M = parse(DiamondLoop);
  Function &F = *M->Functions[0];
  // Critical edges: e->b? e has 2 succs; b has preds {e,b}: critical.
  // b->b: b 2 succs, b 2 preds: critical. b->j: j 2 preds: critical.
  // e->a: a has 1 pred: not critical. a->j: a has 1 succ: not critical.
  unsigned N = splitCriticalEdges(F);
  EXPECT_EQ(N, 3u);
  EXPECT_TRUE(verifyFunction(F).empty());
  // After splitting, no critical edges remain.
  EXPECT_EQ(splitCriticalEdges(F), 0u);
}

TEST(EdgeSplitting, SplitEdgePatchesPhis) {
  auto M = parse(R"(
func @f(%p:i64, %x:i64) -> i64 {
^e:
  cbr %p, ^j, ^b
^b:
  br ^j
^j:
  %w:i64 = phi [%x, ^e], [%p, ^b]
  ret %w
}
)");
  Function &F = *M->Functions[0];
  BasicBlock *Mid = splitEdge(F, 0, 2);
  ASSERT_NE(Mid, nullptr);
  EXPECT_TRUE(verifyFunction(F, SSAMode::Relaxed).empty());
  const Instruction &Phi = F.block(2)->Insts[0];
  // The incoming block for %x is now the split block.
  ASSERT_EQ(Phi.PhiBlocks.size(), 2u);
  EXPECT_EQ(Phi.PhiBlocks[0], Mid->id());
}

BlockId byLabel(const Function &F, std::string_view L) {
  BlockId Out = InvalidBlock;
  F.forEachBlock([&](const BasicBlock &B) {
    if (B.label() == L)
      Out = B.id();
  });
  EXPECT_NE(Out, InvalidBlock) << "no block labeled " << L;
  return Out;
}

const char *Diamond = R"(
func @f(%p:i64) {
^e:
  cbr %p, ^a, ^b
^a:
  br ^j
^b:
  br ^j
^j:
  ret
}
)";

FunctionProfile diamondProfile(const char *FnName) {
  FunctionProfile FP;
  FP.Function = FnName;
  auto Add = [&](const char *L, uint64_t C,
                 std::vector<BlockProfile::Edge> Edges = {}) {
    BlockProfile B;
    B.Label = L;
    B.Count = C;
    B.Edges = std::move(Edges);
    FP.Blocks.push_back(std::move(B));
  };
  Add("e", 10, {{"a", 7}, {"b", 3}});
  Add("a", 7);
  Add("b", 3);
  Add("j", 10);
  Add("gone", 99); // stale label from before a CFG cleanup: must be ignored
  return FP;
}

TEST(ProfileInfo, JoinsByLabel) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionProfile FP = diamondProfile(F.name().c_str());
  CFG G = CFG::compute(F);

  ProfileInfo PI = ProfileInfo::compute(F, G, &FP);
  BlockId E = byLabel(F, "e"), A = byLabel(F, "a"), B = byLabel(F, "b"),
          J = byLabel(F, "j");
  EXPECT_TRUE(PI.attached());
  EXPECT_EQ(PI.entryWeight(), 10u);
  EXPECT_EQ(PI.blockWeight(A), 7u);
  EXPECT_EQ(PI.blockWeight(B), 3u);
  EXPECT_EQ(PI.edgeWeight(E, A), 7u);
  EXPECT_EQ(PI.edgeWeight(E, B), 3u);
  // a -> j has no recorded count, but a has a single successor: the
  // fallthrough inherits the block weight.
  EXPECT_EQ(PI.edgeWeight(A, J), 7u);
  EXPECT_TRUE(PI.blockKnown(E));
  EXPECT_TRUE(PI.edgeKnown(E, A));
  EXPECT_TRUE(PI.edgeKnown(A, J));

  // Without a source the analysis is detached and uniformly zero.
  ProfileInfo None = ProfileInfo::compute(F, G, nullptr);
  EXPECT_FALSE(None.attached());
  EXPECT_EQ(None.blockWeight(A), 0u);
}

TEST(ProfileInfo, RemapsAfterCfgMutation) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionProfile FP = diamondProfile(F.name().c_str());

  BlockId E = byLabel(F, "e"), A = byLabel(F, "a");
  EXPECT_EQ(ProfileInfo::compute(F, CFG::compute(F), &FP).edgeWeight(E, A),
            7u);

  // After a CFG mutation (edge splitting, as PRE does) the join, computed
  // again, still weights the surviving labels and treats the new block as
  // unknown.
  BasicBlock *Mid = splitEdge(F, E, A);
  ProfileInfo PI = ProfileInfo::compute(F, CFG::compute(F), &FP);
  EXPECT_TRUE(PI.attached());
  EXPECT_EQ(PI.blockWeight(A), 7u);
  EXPECT_FALSE(PI.blockKnown(Mid->id()));
  EXPECT_EQ(PI.blockWeight(Mid->id()), 0u);
  // The old e -> a edge no longer exists, so its recorded count must not
  // leak onto e -> mid (unknown) or mid -> a (fallthrough of an unknown
  // block).
  EXPECT_FALSE(PI.edgeKnown(E, Mid->id()));
  EXPECT_FALSE(PI.edgeKnown(Mid->id(), A));
}

} // namespace
