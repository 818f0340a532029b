//===- tests/dataflow_test.cpp - Worklist solver vs a reference sweep -----===//
///
/// The worklist dataflow engine must compute exactly the fixpoints of a
/// plain reference solver kept here: sweep every block until a full pass
/// changes nothing, applying the transfer in two passes. Checked on
/// AVAIL/ANT (re-posed from the local sets analyzePartialRedundancies
/// exports) and on liveness (posed test-side, with and without SSA phis,
/// which exercise MeetSeed), over the paper's running example and generated loop-nest
/// inputs of increasing size (the bench corpus).
///
//===----------------------------------------------------------------------===//

#include "DenseLiveness.h"
#include "TestUtil.h"

#include "analysis/CFG.h"
#include "pre/PRE.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

using namespace epre;
using epre::test::DenseLiveness;
using epre::test::runPass;
using epre::test::toBits;

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

/// Same shape as the bench generator: sequential loop nests with shared
/// invariant subexpressions and array addressing.
std::string loopNestSource(unsigned NumLoops) {
  std::string S = "function gen(a, b, n)\n  integer n\n  real w(64)\n";
  S += "  s = 0.0\n";
  for (unsigned L = 0; L < NumLoops; ++L) {
    S += strprintf("  do i%u = 1, n\n", L);
    S += strprintf("    w(i%u) = (a + b) * i%u + a * %u.0\n", L, L, L + 1);
    S += strprintf("    s = s + w(i%u) + (a + b + %u.0)\n", L, L);
    S += "  end do\n";
  }
  S += "  return s\nend\n";
  return S;
}

std::unique_ptr<Module> compile(const std::string &Src, NamingMode NM) {
  LowerResult LR = compileMiniFortran(Src, NM);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return std::move(LR.M);
}

/// The reference solver: sweeps the reachable blocks in (reverse) postorder
/// until a full pass changes no set, recomputing each block's meet from
/// scratch and applying the transfer in two passes (mask by Preserve or
/// ~Kill, then add Gen). Same boundary rules and initial values as
/// solveBitDataflow; Iterations counts sweeps x blocks.
DataflowStats solveBySweeping(const CFG &G, const BitDataflowProblem &P,
                              std::vector<BitVector> &MeetSets,
                              std::vector<BitVector> &FlowSets) {
  const bool Forward = P.Dir == DataflowDirection::Forward;
  const bool Intersect = P.Meet == MeetOp::Intersect;
  MeetSets.assign(G.numBlockSlots(), BitVector(P.NumBits, Intersect));
  FlowSets = MeetSets;
  const std::vector<BlockId> Order = Forward ? G.rpo() : G.postorder();
  DataflowStats Stats;
  Stats.BlocksVisited = unsigned(Order.size());
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (BlockId B : Order) {
      ++Stats.Iterations;
      const std::vector<BlockId> &Nbrs = Forward ? G.preds(B) : G.succs(B);
      bool Boundary = Intersect &&
                      (Nbrs.empty() || (Forward && B == G.rpo().front()) ||
                       (P.ExtraBoundary && (*P.ExtraBoundary)[B]));
      BitVector Meet(P.NumBits, Intersect && !Boundary);
      if (!Boundary) {
        if (!Intersect && P.MeetSeed)
          Meet.unionWith((*P.MeetSeed)[B]);
        for (BlockId N : Nbrs) {
          if (Intersect)
            Meet.intersectWith(FlowSets[N]);
          else
            Meet.unionWith(FlowSets[N]);
        }
      }
      BitVector Flow = Meet;
      if (P.Preserve)
        Flow.intersectWith((*P.Preserve)[B]);
      else
        Flow.intersectWithComplement((*P.Kill)[B]);
      Flow.unionWith((*P.Gen)[B]);
      if (Meet != MeetSets[B] || Flow != FlowSets[B]) {
        MeetSets[B] = std::move(Meet);
        FlowSets[B] = std::move(Flow);
        Changed = true;
      }
    }
  }
  return Stats;
}

void expectSetsEqual(const std::vector<BitVector> &A,
                     const std::vector<BitVector> &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (unsigned I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << What << " differs at block " << I;
}

/// AVAIL/ANT as PRE solved them must match the reference solve of the same
/// systems, posed from the exported local sets, bit for bit.
void checkPREDataflowEquivalence(const std::string &Src,
                                 const std::string &Fn) {
  auto M = compile(Src, NamingMode::Hashed);
  ASSERT_TRUE(M);
  Function &F = *M->find(Fn);
  PREDataflow W = analyzePartialRedundancies(F);
  CFG G = CFG::compute(F);

  BitDataflowProblem Avail;
  Avail.Dir = DataflowDirection::Forward;
  Avail.Meet = MeetOp::Intersect;
  Avail.NumBits = W.Stats.UniverseSize;
  Avail.Gen = &W.COMP;
  Avail.Preserve = &W.TRANSP;
  std::vector<BitVector> AVIN, AVOUT;
  DataflowStats RA = solveBySweeping(G, Avail, AVIN, AVOUT);

  BitDataflowProblem Ant = Avail;
  Ant.Dir = DataflowDirection::Backward;
  Ant.ExtraBoundary = &W.AntBoundary;
  Ant.Gen = &W.ANTLOC;
  std::vector<BitVector> ANTIN, ANTOUT;
  DataflowStats RN = solveBySweeping(G, Ant, ANTOUT, ANTIN);

  expectSetsEqual(W.AVIN, AVIN, "AVIN");
  expectSetsEqual(W.AVOUT, AVOUT, "AVOUT");
  expectSetsEqual(W.ANTIN, ANTIN, "ANTIN");
  expectSetsEqual(W.ANTOUT, ANTOUT, "ANTOUT");
  // The worklist solve must not be doing more transfer evaluations than the
  // dense sweep — that is the whole point.
  EXPECT_LE(W.Stats.AvailSolve.Iterations, RA.Iterations);
  EXPECT_LE(W.Stats.AntSolve.Iterations, RN.Iterations);
}

/// Liveness posed densely (DenseLiveness.h) must solve to the same sets on
/// the worklist engine as on the reference sweep, and both must match the
/// sparse Liveness::compute, bit for bit. In SSA form the phi uses along
/// each edge enter as the MeetSeed.
void checkLivenessEquivalence(const std::string &Src, const std::string &Fn,
                              bool SSAForm) {
  auto M = compile(Src, NamingMode::Naive);
  ASSERT_TRUE(M);
  Function &F = *M->find(Fn);
  if (SSAForm)
    runPass(F, SSABuildPass());
  CFG G = CFG::compute(F);
  DenseLiveness Dense(F);
  if (SSAForm) {
    bool AnyPhiUse = false;
    for (const BitVector &PU : Dense.PhiUse)
      AnyPhiUse |= PU.any();
    EXPECT_TRUE(AnyPhiUse) << "the SSA case must exercise MeetSeed";
  }

  std::vector<BitVector> WOut, WIn, LiveOut, LiveIn;
  DataflowStats W = solveBitDataflow(G, Dense.problem(), WOut, WIn);
  DataflowStats R = solveBySweeping(G, Dense.problem(), LiveOut, LiveIn);
  Liveness Sparse = Liveness::compute(F, G);

  unsigned NR = F.numRegs();
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    if (!F.block(B))
      continue;
    EXPECT_EQ(WIn[B], LiveIn[B]) << "LiveIn differs at block " << B;
    EXPECT_EQ(WOut[B], LiveOut[B]) << "LiveOut differs at block " << B;
    EXPECT_EQ(toBits(Sparse.liveIn(B), NR), LiveIn[B])
        << "sparse LiveIn differs at block " << B;
    EXPECT_EQ(toBits(Sparse.liveOut(B), NR), LiveOut[B])
        << "sparse LiveOut differs at block " << B;
  }
  EXPECT_LE(W.Iterations, R.Iterations);
}

TEST(DataflowEquivalence, PaperExamplePRESets) {
  checkPREDataflowEquivalence(FooSource, "foo");
}

TEST(DataflowEquivalence, PaperExampleLiveness) {
  checkLivenessEquivalence(FooSource, "foo", /*SSAForm=*/false);
  checkLivenessEquivalence(FooSource, "foo", /*SSAForm=*/true);
}

class DataflowEquivalenceLoopNests : public testing::TestWithParam<unsigned> {
};

TEST_P(DataflowEquivalenceLoopNests, PRESets) {
  checkPREDataflowEquivalence(loopNestSource(GetParam()), "gen");
}

TEST_P(DataflowEquivalenceLoopNests, Liveness) {
  checkLivenessEquivalence(loopNestSource(GetParam()), "gen",
                           /*SSAForm=*/false);
  checkLivenessEquivalence(loopNestSource(GetParam()), "gen",
                           /*SSAForm=*/true);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DataflowEquivalenceLoopNests,
                         testing::Values(1u, 4u, 16u, 64u));

/// The parallel pipeline driver must produce exactly what the serial one
/// does, function by function, in module order.
TEST(PipelineParallel, MatchesSerialOnMultiFunctionModule) {
  std::string Src;
  for (unsigned I = 0; I < 6; ++I) {
    std::string One = loopNestSource(3 + I);
    // Rename each copy so the module holds distinct functions.
    size_t Pos = One.find("function gen");
    One.replace(Pos, 12, "function gen" + std::to_string(I));
    Src += One;
  }
  auto MSerial = compile(Src, NamingMode::Naive);
  auto MParallel = compile(Src, NamingMode::Naive);
  ASSERT_TRUE(MSerial && MParallel);
  ASSERT_EQ(MSerial->Functions.size(), 6u);

  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  std::vector<PipelineStats> S = optimizeModule(*MSerial, PO);
  std::vector<PipelineStats> P = runPipelineParallel(*MParallel, PO, 4);
  ASSERT_EQ(S.size(), P.size());
  for (unsigned I = 0; I < S.size(); ++I) {
    EXPECT_EQ(S[I].opsAfter(), P[I].opsAfter()) << "function " << I;
    EXPECT_EQ(S[I].preDeleted(), P[I].preDeleted()) << "function " << I;
    EXPECT_EQ(printFunction(*MSerial->Functions[I]),
              printFunction(*MParallel->Functions[I]))
        << "function " << I;
  }
}

} // namespace
