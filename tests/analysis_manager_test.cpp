//===- tests/analysis_manager_test.cpp - Cached analyses ------------------===//
///
/// Unit tests for the FunctionAnalysisManager: cache hits on unchanged IR,
/// invalidation on version bumps, the finishPass restamp protocol, the
/// PreservedAnalyses dependency normalization, and the disabled
/// (always-recompute) mode used for differential testing.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/EdgeSplitting.h"
#include "instrument/Profile.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

#include <string_view>

using namespace epre;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
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

TEST(AnalysisManager, RepeatedAccessHitsCache) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);

  const CFG &G1 = AM.cfg();
  const CFG &G2 = AM.cfg();
  EXPECT_EQ(&G1, &G2) << "same object on a cache hit";
  EXPECT_EQ(AM.stats().computes(AnalysisID::CFGAnalysis), 1u);
  EXPECT_EQ(AM.stats().hits(AnalysisID::CFGAnalysis), 1u);
}

TEST(AnalysisManager, VersionBumpForcesRecompute) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);

  AM.cfg();
  F.bumpVersion();
  AM.cfg();
  EXPECT_EQ(AM.stats().computes(AnalysisID::CFGAnalysis), 2u);
  EXPECT_EQ(AM.stats().hits(AnalysisID::CFGAnalysis), 0u);
}

TEST(AnalysisManager, MakeRegBumpsVersion) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  uint64_t V = F.version();
  F.makeReg(Type::I64);
  EXPECT_GT(F.version(), V);
}

TEST(AnalysisManager, FinishPassRestampsPreserved) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);

  AM.domTree();
  // A pass that rewrote instructions but kept the graph: CFG and DomTree
  // survive the version bump through the restamp.
  F.bumpVersion();
  AM.finishPass(PreservedAnalyses::cfgShape());
  AM.domTree();
  EXPECT_EQ(AM.stats().computes(AnalysisID::DomTreeAnalysis), 1u);
  EXPECT_EQ(AM.stats().hits(AnalysisID::DomTreeAnalysis), 1u);
}

TEST(AnalysisManager, FinishPassNoneDropsEverything) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);

  AM.domTree();
  F.bumpVersion();
  AM.finishPass(PreservedAnalyses::none());
  AM.domTree();
  EXPECT_EQ(AM.stats().computes(AnalysisID::CFGAnalysis), 2u);
  EXPECT_EQ(AM.stats().computes(AnalysisID::DomTreeAnalysis), 2u);
}

TEST(AnalysisManager, NormalizationDropsDerivedAnalyses) {
  // Claiming DomTree without CFG is contradictory; normalization drops the
  // derived analysis rather than serving one built on a dead input.
  PreservedAnalyses PA = PreservedAnalyses::none()
                             .preserve(AnalysisID::DomTreeAnalysis)
                             .preserve(AnalysisID::LoopAnalysis)
                             .normalized();
  EXPECT_FALSE(PA.isPreserved(AnalysisID::DomTreeAnalysis));
  EXPECT_FALSE(PA.isPreserved(AnalysisID::LoopAnalysis));

  PreservedAnalyses PB = PreservedAnalyses::none()
                             .preserve(AnalysisID::CFGAnalysis)
                             .preserve(AnalysisID::LoopAnalysis)
                             .normalized();
  EXPECT_TRUE(PB.isPreserved(AnalysisID::CFGAnalysis));
  EXPECT_FALSE(PB.isPreserved(AnalysisID::LoopAnalysis))
      << "loops depend on the dominator tree, which was not preserved";
}

namespace {

BlockId byLabel(const Function &F, std::string_view L) {
  BlockId Out = InvalidBlock;
  F.forEachBlock([&](const BasicBlock &B) {
    if (B.label() == L)
      Out = B.id();
  });
  EXPECT_NE(Out, InvalidBlock) << "no block labeled " << L;
  return Out;
}

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

} // namespace

TEST(AnalysisManager, ProfileInfoJoinsByLabel) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);
  FunctionProfile FP = diamondProfile(F.name().c_str());
  AM.setProfileSource(&FP);

  const ProfileInfo &PI = AM.profileInfo();
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
  AM.setProfileSource(nullptr);
  const ProfileInfo &None = AM.profileInfo();
  EXPECT_FALSE(None.attached());
  EXPECT_EQ(None.blockWeight(A), 0u);
}

TEST(AnalysisManager, ProfileInfoCachesAndSurvivesCfgShape) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);
  FunctionProfile FP = diamondProfile(F.name().c_str());
  AM.setProfileSource(&FP);

  const ProfileInfo &P1 = AM.profileInfo();
  const ProfileInfo &P2 = AM.profileInfo();
  EXPECT_EQ(&P1, &P2) << "same object on a cache hit";
  EXPECT_EQ(AM.stats().computes(AnalysisID::ProfileAnalysis), 1u);
  EXPECT_EQ(AM.stats().hits(AnalysisID::ProfileAnalysis), 1u);

  // Instruction rewrites that keep the block graph keep the mapping.
  F.bumpVersion();
  AM.finishPass(PreservedAnalyses::cfgShape());
  AM.profileInfo();
  EXPECT_EQ(AM.stats().computes(AnalysisID::ProfileAnalysis), 1u);
}

TEST(AnalysisManager, ProfileInfoRemapsAfterCfgMutation) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);
  FunctionProfile FP = diamondProfile(F.name().c_str());
  AM.setProfileSource(&FP);

  BlockId E = byLabel(F, "e"), A = byLabel(F, "a");
  EXPECT_EQ(AM.profileInfo().edgeWeight(E, A), 7u);

  // A CFG-mutating pass (edge splitting, as PRE does) invalidates the
  // mapping; the recomputed join still weights the surviving labels and
  // treats the new block as unknown.
  BasicBlock *Mid = splitEdge(F, E, A);
  AM.finishPass(PreservedAnalyses::none());
  const ProfileInfo &PI = AM.profileInfo();
  EXPECT_EQ(AM.stats().computes(AnalysisID::ProfileAnalysis), 2u);
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

TEST(AnalysisManager, DisabledModeAlwaysRecomputes) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/true);

  AM.cfg();
  AM.cfg();
  EXPECT_EQ(AM.stats().computes(AnalysisID::CFGAnalysis), 2u);
  EXPECT_EQ(AM.stats().hits(AnalysisID::CFGAnalysis), 0u);
}

TEST(AnalysisManager, DerivedAnalysisChainIsCached) {
  auto M = parse(Diamond);
  Function &F = *M->Functions[0];
  FunctionAnalysisManager AM(F, /*Disabled=*/false);

  AM.loopInfo(); // pulls in CFG and DomTree
  AM.loopInfo();
  EXPECT_EQ(AM.stats().computes(AnalysisID::CFGAnalysis), 1u);
  EXPECT_EQ(AM.stats().computes(AnalysisID::DomTreeAnalysis), 1u);
  EXPECT_EQ(AM.stats().computes(AnalysisID::LoopAnalysis), 1u);
  EXPECT_EQ(AM.stats().hits(AnalysisID::LoopAnalysis), 1u);
}

} // namespace
