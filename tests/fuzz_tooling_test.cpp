//===- tests/fuzz_tooling_test.cpp - Oracle, bisection, reduction ---------===//
///
/// \file
/// End-to-end checks of the fuzzing toolchain against a planted miscompile:
/// dropping PRE's availability meet (union instead of intersection) must be
/// caught by the differential oracle, bisected to the 'pre' pass, and
/// reduced to a tiny reproducer — and the reproducer must still pinpoint
/// the fault (clean once the fault is disabled). Also covers the pipeline
/// prefix-execution hook's algebraic properties.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "fuzz/Bisect.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reduce.h"
#include "ir/IRPrinter.h"
#include "pre/PRE.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace epre;
using namespace epre::fuzz;

namespace {

/// RAII guard: the fault flag is process-global, so never leak it into
/// other tests.
struct FaultGuard {
  explicit FaultGuard(bool On) { fault::setPREDropAvailabilityMeet(On); }
  ~FaultGuard() { fault::setPREDropAvailabilityMeet(false); }
};

TEST(FuzzTooling, CleanMiniCampaign) {
  OracleOptions OO;
  std::vector<OracleConfig> Configs = oracleConfigs(/*Quick=*/true);
  for (const std::string &Shape : generatorShapeNames()) {
    GeneratorOptions GO;
    ASSERT_TRUE(shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
      FuzzProgram P = generateProgram(Seed, GO, Shape);
      OracleResult OR = runDifferentialOracle(P, OO, Configs);
      EXPECT_FALSE(OR.Inconclusive) << Shape << " seed " << Seed;
      EXPECT_FALSE(OR.Mismatch) << Shape << " seed " << Seed;
      for (const OracleFinding &F : OR.Findings)
        ADD_FAILURE() << Shape << " seed " << Seed << " [" << F.Config
                      << "] " << F.Detail;
    }
  }
}

TEST(FuzzTooling, CFGShapeCoversItsEdgesAndRunsClean) {
  // The CFG features the "cfg" shape promises, counted over 200 programs
  // (equal-target branches in the text, the rest after parsing folds
  // them), and a clean full-matrix campaign in which every reference run
  // ends.
  GeneratorOptions GO;
  ASSERT_TRUE(shapeOptions("cfg", GO));
  OracleOptions OO;
  std::vector<OracleConfig> Configs = oracleConfigs();
  unsigned EqualTargets = 0, DeadPhis = 0, SelfLoops = 0, EntryLoops = 0,
           Irreducible = 0, Critical = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    FuzzProgram P = generateProgram(Seed, GO, "cfg");
    std::istringstream Lines(P.Text);
    for (std::string L; std::getline(Lines, L);) {
      size_t First = L.find(", ^"), Second = L.rfind(", ^");
      EqualTargets += L.find("cbr ") != std::string::npos && First != Second &&
                      L.substr(First, Second - First) == L.substr(Second);
    }
    std::unique_ptr<Module> M = parseModuleText(P.Text);
    ASSERT_NE(M, nullptr) << P.Text;
    const Function &F = *M->Functions[0];
    CFG G = CFG::compute(F);
    DominatorTree DT = DominatorTree::compute(F, G);
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id())) {
        DeadPhis += B.firstNonPhi() != 0;
        return;
      }
      for (BlockId S : G.succs(B.id())) {
        SelfLoops += S == B.id();
        EntryLoops += S == 0;
        Irreducible += G.rpoNumber(S) <= G.rpoNumber(B.id()) &&
                       !DT.dominates(S, B.id());
        Critical += G.succs(B.id()).size() > 1 && G.preds(S).size() > 1;
      }
    });
    OracleResult OR = runDifferentialOracle(P, OO, Configs);
    EXPECT_FALSE(OR.Inconclusive) << "seed " << Seed;
    for (const OracleFinding &Fi : OR.Findings)
      ADD_FAILURE() << "seed " << Seed << " [" << Fi.Config << "] "
                    << Fi.Detail;
  }
  EXPECT_GT(EqualTargets, 0u);
  EXPECT_GT(DeadPhis, 0u);
  EXPECT_GT(SelfLoops, 0u);
  EXPECT_GT(EntryLoops, 0u);
  EXPECT_GT(Irreducible, 0u);
  EXPECT_GT(Critical, 0u);
}

TEST(FuzzTooling, ReferenceRejectsUnverifiedText) {
  // A block with no terminator parses but does not verify: the oracle must
  // report it instead of interpreting it.
  std::ifstream In(EPRE_REJECTED_DIR "/no-terminator.iloc");
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  FuzzProgram P;
  P.Text = SS.str();
  P.MemBytes = 64;
  ASSERT_NE(parseModuleText(P.Text), nullptr);

  OracleOptions OO;
  ReferenceRun Ref = runReference(P, OO);
  EXPECT_FALSE(Ref.ParseOk);
  EXPECT_NE(Ref.ParseError.find("does not end in a terminator"),
            std::string::npos)
      << Ref.ParseError;
  EXPECT_EQ(Ref.R.DynOps, 0u);

  OracleResult OR = runDifferentialOracle(P, OO, oracleConfigs(/*Quick=*/true));
  EXPECT_FALSE(OR.Mismatch);
  EXPECT_TRUE(OR.Inconclusive);
  EXPECT_EQ(OR.ConfigsRun, 1u);
}

TEST(FuzzTooling, PlantedFaultIsCaughtBisectedAndReduced) {
  FaultGuard Fault(true);

  OracleOptions OO;
  std::vector<OracleConfig> Configs = oracleConfigs(/*Quick=*/true);
  GeneratorOptions GO;
  ASSERT_TRUE(shapeOptions("branchy", GO));

  // Scan seeds until the planted fault produces a mismatch that bisects to
  // the guilty 'pre' pass. (Some seeds surface the corruption only after a
  // later cleanup pass; a handful of seeds always contains a direct hit.)
  bool Demonstrated = false;
  for (uint64_t Seed = 1; Seed <= 40 && !Demonstrated; ++Seed) {
    FuzzProgram P = generateProgram(Seed, GO, "branchy");
    OracleResult OR = runDifferentialOracle(P, OO, Configs);
    if (!OR.Mismatch)
      continue;
    ASSERT_FALSE(OR.Findings.empty());

    OracleConfig C;
    ASSERT_TRUE(
        findOracleConfig(OR.Findings.front().Config, /*Quick=*/true, C));

    BisectResult B = bisectMiscompile(P, C, OO);
    ASSERT_TRUE(B.Bisected) << "seed " << Seed;
    EXPECT_GT(B.TotalPasses, 0u);
    EXPECT_LE(B.PrefixLength, B.TotalPasses);
    if (B.GuiltyPass != "pre")
      continue; // corruption surfaced downstream; try another seed

    ReduceResult R = reduceMiscompile(P, C, OO);
    ASSERT_TRUE(R.Reduced) << "seed " << Seed;
    EXPECT_LE(R.InstsAfter, 15u) << "seed " << Seed;
    EXPECT_LT(R.InstsAfter, R.InstsBefore);

    // The reduced program still fails with the same signature...
    FuzzProgram Q = P;
    Q.Text = R.Text;
    EXPECT_EQ(runConfigOnce(Q, C, OO).Kind, R.Signature);

    // ...and is clean once the fault is turned off, so the reproducer
    // really captures the planted bug and not a generator artifact.
    fault::setPREDropAvailabilityMeet(false);
    EXPECT_EQ(runConfigOnce(Q, C, OO).Kind, MismatchKind::None);
    fault::setPREDropAvailabilityMeet(true);

    Demonstrated = true;
  }
  EXPECT_TRUE(Demonstrated)
      << "no seed in range was caught, bisected to 'pre', and reduced";
}

TEST(FuzzTooling, PrefixZeroLeavesFunctionUntouched) {
  GeneratorOptions GO;
  ASSERT_TRUE(shapeOptions("small", GO));
  FuzzProgram P = generateProgram(5, GO, "small");

  OracleConfig C;
  ASSERT_TRUE(findOracleConfig("partial/lcm", /*Quick=*/false, C));

  std::unique_ptr<Module> M = parseModuleText(P.Text);
  ASSERT_NE(M, nullptr);
  std::string Before = printModule(*M);
  PassPrefixResult R = optimizeFunctionPrefix(*M->Functions[0], C.PO, 0);
  EXPECT_EQ(R.PassesRun, 0u);
  EXPECT_TRUE(R.Trace.empty());
  EXPECT_EQ(printModule(*M), Before);
}

TEST(FuzzTooling, FullPrefixMatchesOptimizeFunction) {
  GeneratorOptions GO;
  ASSERT_TRUE(shapeOptions("small", GO));
  OracleConfig C;
  ASSERT_TRUE(findOracleConfig("partial/lcm", /*Quick=*/false, C));

  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    FuzzProgram P = generateProgram(Seed, GO, "small");

    std::unique_ptr<Module> A = parseModuleText(P.Text);
    std::unique_ptr<Module> B = parseModuleText(P.Text);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);

    optimizeFunction(*A->Functions[0], C.PO);
    optimizeFunctionPrefix(*B->Functions[0], C.PO, ~0u);

    std::string Why;
    EXPECT_TRUE(modulesStructurallyEqual(*A, *B, &Why))
        << "seed " << Seed << ": " << Why;
  }
}

TEST(FuzzTooling, PrefixTracesArePrefixesOfTheFullTrace) {
  GeneratorOptions GO;
  ASSERT_TRUE(shapeOptions("small", GO));
  FuzzProgram P = generateProgram(9, GO, "small");
  OracleConfig C;
  ASSERT_TRUE(findOracleConfig("partial/lcm", /*Quick=*/false, C));

  std::unique_ptr<Module> Full = parseModuleText(P.Text);
  ASSERT_NE(Full, nullptr);
  PassPrefixResult FullR =
      optimizeFunctionPrefix(*Full->Functions[0], C.PO, ~0u);
  ASSERT_GT(FullR.PassesRun, 0u);
  EXPECT_EQ(FullR.PassesRun, FullR.Trace.size());

  for (unsigned N = 1; N <= FullR.PassesRun; ++N) {
    std::unique_ptr<Module> M = parseModuleText(P.Text);
    ASSERT_NE(M, nullptr);
    PassPrefixResult R = optimizeFunctionPrefix(*M->Functions[0], C.PO, N);
    EXPECT_EQ(R.PassesRun, N);
    ASSERT_EQ(R.Trace.size(), N);
    for (unsigned I = 0; I < N; ++I)
      EXPECT_EQ(R.Trace[I], FullR.Trace[I]) << "prefix " << N;
  }
}

} // namespace
