//===- tests/dataflow_test.cpp - PRE's sets vs reference computations -----===//
///
/// PRE derives ANTLOC, COMP and TRANSP from one walk per block; they must
/// match the per-expression scan of reference/ReferenceLocalSets.h. PRE
/// solves AVAIL, ANT and LATERIN on one worklist routine of its own. Its
/// AVAIL and ANT sets must be exactly the fixpoints that the reference
/// sweep of SweepDataflow.h computes for the same systems, posed from the
/// local sets analyzePartialRedundancies exports, bit for bit. Checked on
/// the paper's running example, generated loop nests of increasing size
/// (the bench corpus), tests/corpus (irreducible flow included), the 50
/// suite routines at the input of PRE's first round at each level, 540
/// generated programs, and under the planted availability fault. The dense
/// liveness posing is solved by the same sweep and checked against the
/// sparse walk, with and without SSA phis (which exercise MeetSeed).
///
//===----------------------------------------------------------------------===//

#include "DenseLiveness.h"
#include "SweepDataflow.h"
#include "TestUtil.h"
#include "reference/ReferenceLocalSets.h"

#include "analysis/CFG.h"
#include "fuzz/FuzzGen.h"
#include "pre/PRE.h"
#include "ssa/SSA.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;
using namespace epre::test;

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

std::unique_ptr<Module> compile(const std::string &Src, NamingMode NM) {
  LowerResult LR = compileMiniFortran(Src, NM);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return std::move(LR.M);
}

std::unique_ptr<Module> parseText(const std::string &Text) {
  ParseResult PR = parseModule(Text);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

void expectSetsEqual(const std::vector<BitVector> &A,
                     const std::vector<BitVector> &B, const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (unsigned I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << What << " differs at block " << I;
}

/// Block evaluations of one function's AVAIL and ANT solves, by PRE and by
/// the sweep (all zero: empty universe).
struct Evaluations {
  unsigned Avail = 0, Ant = 0, SweepAvail = 0, SweepAnt = 0;
};

/// PRE's local sets on \p F must match the per-expression reference, and
/// AVAIL/ANT as PRE solved them must match the sweep of the same systems,
/// bit for bit. Under the planted fault AVAIL is posed as PRE
/// poses it then: a union problem with no entry boundary.
Evaluations expectPRESetsMatchSweep(Function &F, const std::string &What) {
  PREDataflow W = analyzePartialRedundancies(F);
  if (W.Stats.UniverseSize == 0)
    return {};
  ReferenceLocalSets Local = ReferenceLocalSets::compute(F, W.Names);
  expectSetsEqual(W.ANTLOC, Local.ANTLOC, What + ": ANTLOC");
  expectSetsEqual(W.COMP, Local.COMP, What + ": COMP");
  expectSetsEqual(W.TRANSP, Local.TRANSP, What + ": TRANSP");
  CFG G = CFG::compute(F);
  Evaluations R;
  R.Avail = W.Stats.AvailIterations;
  R.Ant = W.Stats.AntIterations;

  SweepProblem Avail;
  Avail.Union = fault::preDropAvailabilityMeet();
  Avail.NumBits = W.Stats.UniverseSize;
  Avail.Gen = &W.COMP;
  Avail.Preserve = &W.TRANSP;
  std::vector<BitVector> AVIN, AVOUT;
  R.SweepAvail = solveBySweeping(G, Avail, AVIN, AVOUT);

  SweepProblem Ant;
  Ant.Forward = false;
  Ant.NumBits = W.Stats.UniverseSize;
  Ant.ExtraBoundary = &W.AntBoundary;
  Ant.Gen = &W.ANTLOC;
  Ant.Preserve = &W.TRANSP;
  std::vector<BitVector> ANTIN, ANTOUT;
  R.SweepAnt = solveBySweeping(G, Ant, ANTOUT, ANTIN);

  expectSetsEqual(W.AVIN, AVIN, What + ": AVIN");
  expectSetsEqual(W.AVOUT, AVOUT, What + ": AVOUT");
  expectSetsEqual(W.ANTIN, ANTIN, What + ": ANTIN");
  expectSetsEqual(W.ANTOUT, ANTOUT, What + ": ANTOUT");
  return R;
}

/// The check on a lowered routine; the worklist must also not do more
/// transfer evaluations than the dense sweep.
void checkPREDataflowEquivalence(const std::string &Src,
                                 const std::string &Fn) {
  auto M = compile(Src, NamingMode::Hashed);
  ASSERT_TRUE(M);
  Evaluations R = expectPRESetsMatchSweep(*M->find(Fn), Fn);
  ASSERT_GT(R.Avail, 0u) << "empty universe";
  EXPECT_LE(R.Avail, R.SweepAvail);
  EXPECT_LE(R.Ant, R.SweepAnt);
}

/// Brings a fresh copy from \p Make to the input of its function
/// \p Index's first PRE round under \p PO. Null when no round runs.
template <typename MakeFn>
std::unique_ptr<Module> atFirstPRERound(MakeFn Make, unsigned Index,
                                        const PipelineOptions &PO) {
  auto Traced = Make();
  PassPrefixResult Full =
      optimizeFunctionPrefix(*Traced->Functions[Index], PO, ~0u);
  auto It = std::find(Full.Trace.begin(), Full.Trace.end(), "pre");
  if (It == Full.Trace.end())
    return nullptr;
  auto M = Make();
  optimizeFunctionPrefix(*M->Functions[Index], PO,
                         unsigned(It - Full.Trace.begin()));
  return M;
}

/// Checks every function of the ILOC module \p Text as parsed and at the
/// input of its first PRE round at the distribution level. Returns how
/// many of those functions had a nonempty universe.
unsigned expectModulePRESetsMatch(const std::string &Text,
                                  const std::string &What) {
  auto M = parseText(Text);
  if (!M)
    return 0;
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Naming = InputNaming::Naive;
  unsigned Checked = 0;
  for (unsigned I = 0; I < M->Functions.size(); ++I) {
    Function &F = *M->Functions[I];
    Checked += expectPRESetsMatchSweep(F, What + "/" + F.name()).Avail != 0;
    auto AtPRE = atFirstPRERound([&] { return parseText(Text); }, I, PO);
    if (AtPRE)
      Checked += expectPRESetsMatchSweep(*AtPRE->Functions[I],
                                         What + "/" + F.name() + "@pre")
                     .Avail != 0;
  }
  return Checked;
}

/// Liveness posed densely (DenseLiveness.h) and solved by the sweep must
/// match the sparse Liveness::compute, bit for bit. In SSA form the phi
/// uses along each edge enter as the MeetSeed.
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

  std::vector<BitVector> LiveOut, LiveIn;
  solveBySweeping(G, Dense.problem(), LiveOut, LiveIn);
  Liveness Sparse = Liveness::compute(F, G);

  unsigned NR = F.numRegs();
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    if (!F.block(B))
      continue;
    EXPECT_EQ(toBits(Sparse.liveIn(B), NR), LiveIn[B])
        << "sparse LiveIn differs at block " << B;
    EXPECT_EQ(toBits(Sparse.liveOut(B), NR), LiveOut[B])
        << "sparse LiveOut differs at block " << B;
  }
}

TEST(DataflowEquivalence, PaperExamplePRESets) {
  checkPREDataflowEquivalence(FooSource, "foo");
}

TEST(DataflowEquivalence, PaperExampleLiveness) {
  checkLivenessEquivalence(FooSource, "foo", /*SSAForm=*/false);
  checkLivenessEquivalence(FooSource, "foo", /*SSAForm=*/true);
}

TEST(DataflowEquivalence, CorpusPRESets) {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (E.path().extension() == ".iloc")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_TRUE(std::any_of(Files.begin(), Files.end(), [](const auto &P) {
    return P.find("irreducible") != std::string::npos;
  }));
  unsigned Checked = 0;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    Checked += expectModulePRESetsMatch(SS.str(), Path);
  }
  EXPECT_GT(Checked, 0u);
}

/// The 50 routines as PRE's first round sees them at each level that runs
/// PRE: partial (hashed names straight from the front end), reassociation
/// and distribution (after reassociation and value numbering).
TEST(DataflowEquivalence, SuiteRoutinesAtFirstPRERound) {
  unsigned Checked = 0;
  for (const Routine &R : benchmarkSuite()) {
    for (OptLevel L : {OptLevel::Partial, OptLevel::Reassociation,
                       OptLevel::Distribution}) {
      PipelineOptions PO;
      PO.Level = L;
      PO.Naming = L == OptLevel::Partial ? InputNaming::Hashed
                                         : InputNaming::Naive;
      auto M = atFirstPRERound(
          [&] { return compile(R.Source, namingFor(L)); }, 0, PO);
      ASSERT_TRUE(M) << R.Name << " runs no PRE round";
      Checked += expectPRESetsMatchSweep(*M->Functions[0],
                                         R.Name + "@" + optLevelName(L))
                     .Avail != 0;
    }
  }
  EXPECT_EQ(Checked, 150u);
}

TEST(DataflowEquivalence, GeneratedProgramsPRESets) {
  unsigned Programs = 0, Checked = 0;
  for (const std::string &Shape : fuzz::generatorShapeNames()) {
    fuzz::GeneratorOptions GO;
    ASSERT_TRUE(fuzz::shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= 90; ++Seed, ++Programs) {
      fuzz::FuzzProgram P = fuzz::generateProgram(Seed, GO, Shape);
      Checked +=
          expectModulePRESetsMatch(P.Text, Shape + "/" + std::to_string(Seed));
    }
  }
  EXPECT_GE(Programs, 500u);
  EXPECT_GT(Checked, Programs);
}

/// The back edge targets the entry block, which makes x+y and the
/// comparison available along it: the entry's AVIN must still be empty.
TEST(DataflowEquivalence, BackEdgeIntoEntryPRESets) {
  auto M = parseText(R"(
func @f(%n:i64, %x:i64, %y:i64) -> i64 {
^entry:
  %t:i64 = add %x, %y
  %i:i64 = add %i, %t
  %c:i64 = cmplt %i, %n
  cbr %c, ^entry, ^exit
^exit:
  ret %i
}
)");
  ASSERT_TRUE(M);
  Function &F = *M->Functions[0];
  ASSERT_FALSE(CFG::compute(F).preds(0).empty());
  EXPECT_GT(expectPRESetsMatchSweep(F, "entry-loop").Avail, 0u);
  PREDataflow W = analyzePartialRedundancies(F);
  EXPECT_EQ(W.Stats.UniverseSize, 2u);
  EXPECT_TRUE(W.AVIN[0].none());
  EXPECT_EQ(W.AVOUT[0].count(), 2u);
}

/// Under fault::setPREDropAvailabilityMeet, AVAIL must be exactly the
/// union problem from all-zero sets with no entry boundary, and differ
/// from the true AVAIL somewhere, or the fuzzer's drill would test nothing.
TEST(DataflowEquivalence, PlantedFaultPosesAvailabilityAsUnion) {
  struct FaultOn {
    FaultOn() { fault::setPREDropAvailabilityMeet(true); }
    ~FaultOn() { fault::setPREDropAvailabilityMeet(false); }
  };
  for (unsigned Loops : {1u, 16u}) {
    auto M = compile(loopNestSource(Loops), NamingMode::Hashed);
    ASSERT_TRUE(M);
    Function &F = *M->find("gen");
    PREDataflow Right = analyzePartialRedundancies(F);
    FaultOn Guard;
    PREDataflow Wrong = analyzePartialRedundancies(F);
    EXPECT_NE(Right.AVIN, Wrong.AVIN) << Loops << " loops";
    EXPECT_GT(expectPRESetsMatchSweep(F, "faulted gen").Avail, 0u);
  }
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
