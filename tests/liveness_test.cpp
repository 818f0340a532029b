//===- tests/liveness_test.cpp - Sparse liveness vs the dense solve -------===//
///
/// Liveness::compute walks each register backward from its uses. The
/// dense bit-vector formulation it replaced survives here as the oracle
/// (DenseLiveness.h, solved by the sweep in SweepDataflow.h): every live-in
/// and live-out set must match bit for bit on every block. Checked on the
/// corpus (irreducible flow included), the 50 suite routines at every level
/// with phis present and after the pipeline, generated programs of every
/// shape, and a loop whose back edge targets the entry block.
///
//===----------------------------------------------------------------------===//

#include "DenseLiveness.h"
#include "TestUtil.h"

#include "fuzz/FuzzGen.h"
#include "ssa/SSA.h"
#include "suite/Suite.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;
using namespace epre::test;

namespace {

/// Compares Liveness::compute against the dense solve on every block.
void expectMatchesDense(const Function &F, const std::string &What) {
  CFG G = CFG::compute(F);
  Liveness Sparse = Liveness::compute(F, G);
  DenseLiveness Dense(F);
  std::vector<BitVector> LiveOut, LiveIn;
  solveBySweeping(G, Dense.problem(), LiveOut, LiveIn);
  unsigned NR = F.numRegs();
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    if (!F.block(B))
      continue;
    Liveness::RegList In = Sparse.liveIn(B), Out = Sparse.liveOut(B);
    ASSERT_TRUE(std::is_sorted(In.begin(), In.end())) << What;
    ASSERT_TRUE(std::is_sorted(Out.begin(), Out.end())) << What;
    EXPECT_EQ(toBits(In, NR), LiveIn[B])
        << What << ": live-in differs at block " << B;
    EXPECT_EQ(toBits(Out, NR), LiveOut[B])
        << What << ": live-out differs at block " << B;
    for (Reg R = 0; R < NR; ++R)
      ASSERT_EQ(Sparse.isLiveIn(R, B), LiveIn[B].test(R))
          << What << ": isLiveIn(r" << R << ", " << B << ")";
  }
}

std::unique_ptr<Module> parseText(const std::string &Text) {
  ParseResult PR = parseModule(Text);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

/// Checks \p Text as parsed and again after pruned SSA construction.
void expectMatchesDenseWithAndWithoutPhis(const std::string &Text,
                                          const std::string &What) {
  auto M = parseText(Text);
  ASSERT_TRUE(M) << What;
  for (auto &F : M->Functions) {
    expectMatchesDense(*F, What + "/" + F->name());
    runPass(*F, SSABuildPass());
    expectMatchesDense(*F, What + "/" + F->name() + "/ssa");
  }
}

TEST(LivenessOracle, CorpusMatchesDense) {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (E.path().extension() == ".iloc")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_TRUE(std::any_of(Files.begin(), Files.end(), [](const auto &P) {
    return P.find("irreducible") != std::string::npos;
  }));
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    expectMatchesDenseWithAndWithoutPhis(SS.str(), Path);
  }
}

/// Suite routines at every level: in the pipeline's state right after its
/// first SSA construction (phis present; levels without one build SSA on
/// the lowered input), and after the whole pipeline.
TEST(LivenessOracle, SuiteRoutinesAtEveryLevelMatchDense) {
  const OptLevel Levels[] = {OptLevel::Baseline, OptLevel::Partial,
                             OptLevel::Reassociation, OptLevel::Distribution};
  unsigned SawPhis = 0;
  for (const Routine &R : benchmarkSuite()) {
    for (OptLevel L : Levels) {
      PipelineOptions PO;
      PO.Level = L;
      PO.Naming = L == OptLevel::Partial ? InputNaming::Hashed
                                         : InputNaming::Naive;
      std::string What = R.Name + "@" + optLevelName(L);
      auto lower = [&] {
        LowerResult LR = compileMiniFortran(R.Source, namingFor(L));
        EXPECT_TRUE(LR.ok()) << LR.Error;
        return std::move(LR.M);
      };

      auto Traced = lower();
      PassPrefixResult Full =
          optimizeFunctionPrefix(*Traced->Functions[0], PO, ~0u);
      auto It = std::find(Full.Trace.begin(), Full.Trace.end(), "ssa.build");
      auto AfterSSA = lower();
      Function &FS = *AfterSSA->Functions[0];
      if (It != Full.Trace.end())
        optimizeFunctionPrefix(FS, PO, unsigned(It - Full.Trace.begin()) + 1);
      else
        runPass(FS, SSABuildPass());
      FS.forEachBlock([&](const BasicBlock &B) {
        SawPhis += B.firstNonPhi() != 0;
      });
      expectMatchesDense(FS, What + "/after ssa.build");

      auto Optimized = lower();
      optimizeFunction(*Optimized->Functions[0], PO);
      expectMatchesDense(*Optimized->Functions[0], What + "/after pipeline");
    }
  }
  EXPECT_GT(SawPhis, 0u) << "the SSA states must exercise phi uses";
}

TEST(LivenessOracle, GeneratedProgramsMatchDense) {
  unsigned Programs = 0;
  for (const std::string &Shape : fuzz::generatorShapeNames()) {
    fuzz::GeneratorOptions GO;
    ASSERT_TRUE(fuzz::shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= 90; ++Seed, ++Programs) {
      fuzz::FuzzProgram P = fuzz::generateProgram(Seed, GO, Shape);
      expectMatchesDenseWithAndWithoutPhis(
          P.Text, Shape + "/" + std::to_string(Seed));
    }
  }
  EXPECT_GE(Programs, 500u);
}

/// The back edge targets the entry block, so the entry has a predecessor:
/// liveness flows around the loop through the entry, and SSA construction
/// must place the loop-carried phi at the entry itself.
const char *EntryLoop = R"(
func @f(%n:i64) -> i64 {
^entry:
  %one:i64 = loadi 1
  %s:i64 = add %s, %one
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^entry, ^exit
^exit:
  ret %s
}
)";

TEST(LivenessOracle, BackEdgeIntoEntryMatchesDense) {
  expectMatchesDenseWithAndWithoutPhis(EntryLoop, "entry-loop");

  auto M = parseText(EntryLoop);
  ASSERT_TRUE(M);
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  ASSERT_FALSE(G.preds(0).empty());
  Liveness L = Liveness::compute(F, G);
  // %s and %i are read before any definition, around the loop: live into
  // the entry and out of it along the back edge.
  Reg N = F.params()[0];
  EXPECT_EQ(L.liveIn(0).size(), 3u);
  EXPECT_TRUE(L.isLiveIn(N, 0));
  EXPECT_EQ(L.liveOut(0).size(), 3u);
}

} // namespace
