//===- tests/suite_stats_test.cpp - Suite-wide invariants -----------------===//
///
/// Aggregate invariants over the 50-routine corpus beyond the plain
/// differential checks: Table-2 expansion bounds, pipeline statistics
/// sanity, and differential correctness of the extension configurations
/// (strength reduction, DVNT engine).
///
//===----------------------------------------------------------------------===//

#include "suite/Harness.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace epre;

namespace {

class PerRoutine : public testing::TestWithParam<unsigned> {};

std::string routineName(const testing::TestParamInfo<unsigned> &Info) {
  return benchmarkSuite()[Info.param].Name;
}

// Table 2's practical claim: forward propagation's expansion is modest
// (the paper's worst case was 2.49x; ours stays below 3x everywhere).
TEST_P(PerRoutine, ForwardPropExpansionBounded) {
  const Routine &R = benchmarkSuite()[GetParam()];
  PipelineStats S = measureForwardPropExpansion(R);
  ASSERT_GT(S.get("fwdprop", "ops_before"), 0u);
  EXPECT_GT(S.get("fwdprop", "ops_after"), 0u);
  EXPECT_LT(S.fwdExpansion(), 3.0) << R.Name;
  EXPECT_GE(S.fwdExpansion(), 1.0) << R.Name;
}

// The extension configurations must preserve behaviour too.
TEST_P(PerRoutine, StrengthReductionDifferential) {
  const Routine &R = benchmarkSuite()[GetParam()];
  Measurement Ref = measureRoutine(R, OptLevel::None);
  ASSERT_TRUE(Ref.ok());
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.EnableStrengthReduction = true;
  Measurement Got = measureRoutine(R, OptLevel::Distribution, &PO);
  ASSERT_TRUE(Got.ok()) << (Got.CompileOk ? Got.TrapReason
                                          : Got.CompileError);
  ASSERT_EQ(Ref.ReturnValue.Ty, Got.ReturnValue.Ty);
  if (Ref.ReturnValue.isI())
    EXPECT_EQ(Ref.ReturnValue.I, Got.ReturnValue.I);
  else
    EXPECT_NEAR(Ref.ReturnValue.F, Got.ReturnValue.F,
                1e-8 * (1.0 + std::fabs(Ref.ReturnValue.F)));
}

TEST_P(PerRoutine, DVNTEngineDifferential) {
  const Routine &R = benchmarkSuite()[GetParam()];
  Measurement Ref = measureRoutine(R, OptLevel::None);
  ASSERT_TRUE(Ref.ok());
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Engine = GVNEngine::DVNT;
  Measurement Got = measureRoutine(R, OptLevel::Distribution, &PO);
  ASSERT_TRUE(Got.ok()) << (Got.CompileOk ? Got.TrapReason
                                          : Got.CompileError);
  ASSERT_EQ(Ref.ReturnValue.Ty, Got.ReturnValue.Ty);
  if (Ref.ReturnValue.isI())
    EXPECT_EQ(Ref.ReturnValue.I, Got.ReturnValue.I);
  else
    EXPECT_NEAR(Ref.ReturnValue.F, Got.ReturnValue.F,
                1e-8 * (1.0 + std::fabs(Ref.ReturnValue.F)));
}

INSTANTIATE_TEST_SUITE_P(AllRoutines, PerRoutine,
                         testing::Range(0u, 50u), routineName);

TEST(SuiteStats, PipelineStatisticsAreSane) {
  unsigned WithPhis = 0, WithPREWork = 0;
  for (const Routine &R : benchmarkSuite()) {
    Measurement M = measureRoutine(R, OptLevel::Distribution);
    ASSERT_TRUE(M.ok()) << R.Name;
    EXPECT_GT(M.Stats.opsBefore(), 0u) << R.Name;
    EXPECT_GT(M.Stats.opsAfter(), 0u) << R.Name;
    if (M.Stats.phisRemoved() > 0)
      ++WithPhis;
    if (M.Stats.preDeleted() + M.Stats.preInserted() > 0)
      ++WithPREWork;
    // GVN must always find some structure.
    EXPECT_GT(M.Stats.gvnClasses(), 0u) << R.Name;
  }
  // Every routine in this suite has loops, hence phis; PRE finds work in
  // nearly all of them.
  EXPECT_EQ(WithPhis, 50u);
  EXPECT_GE(WithPREWork, 45u);
}

TEST(SuiteStats, WeightedCostTracksOps) {
  // The weighted metric must never be less than the unweighted count
  // (every op costs at least 1... except phis, which measured code lacks).
  for (const Routine &R : benchmarkSuite()) {
    Measurement M = measureRoutine(R, OptLevel::Baseline);
    ASSERT_TRUE(M.ok()) << R.Name;
    EXPECT_GE(M.WeightedCost, M.DynOps) << R.Name;
  }
}

} // namespace
