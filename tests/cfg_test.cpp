//===- tests/cfg_test.cpp - Flat CFG against the nested reference ---------===//
///
/// CFG::compute stores its edge lists as flat arrays. The nested-vector
/// construction it replaced lives on in reference/ReferenceCFG.h, and these
/// tests require both to report the same predecessor and successor lists,
/// in the same order, and the same reverse postorder, on tests/corpus, the
/// 50 suite routines, loop chains and generated programs. Each function is
/// checked as it enters the pipeline and again after every pass, so graphs
/// with unreachable blocks, split edges and merged blocks are covered too.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/CFG.h"
#include "fuzz/FuzzGen.h"
#include "reference/ReferenceCFG.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;
using namespace epre::test;

namespace {

/// Compares the flat CFG of \p F with the reference; records a failure
/// and returns false when they differ.
bool expectSameCFG(const Function &F, const std::string &Where) {
  CFG G = CFG::compute(F);
  ReferenceCFG R = ReferenceCFG::compute(F);
  auto List = [](std::span<const BlockId> S) {
    return std::vector<BlockId>(S.begin(), S.end());
  };
  bool Same = G.numBlockSlots() == R.Preds.size() && G.rpo() == R.RPO;
  for (BlockId B = 0; Same && B < R.Preds.size(); ++B)
    Same = List(G.preds(B)) == R.Preds[B] && List(G.succs(B)) == R.Succs[B] &&
           G.rpoNumber(B) == R.RPONumber[B];
  EXPECT_TRUE(Same) << Where;
  return Same;
}

/// Checks every function of \p M before optimization and after every pass
/// of the pipeline at \p Opts. Returns the number of graphs compared.
unsigned checkThroughPipeline(Module &M, PipelineOptions Opts,
                              const std::string &Where) {
  unsigned Checked = 0;
  PassInstrumentation PI;
  PI.registerAfterPass([&](std::string_view Pass, const Function &F) {
    ++Checked;
    expectSameCFG(F, Where + " after " + std::string(Pass));
  });
  Opts.Instr = &PI;
  for (auto &F : M.Functions) {
    ++Checked;
    if (expectSameCFG(*F, Where + " at input"))
      optimizeFunction(*F, Opts);
  }
  return Checked;
}

PipelineOptions levelOptions(OptLevel L) {
  PipelineOptions PO;
  PO.Level = L;
  PO.Naming = L == OptLevel::Partial ? InputNaming::Hashed : InputNaming::Naive;
  return PO;
}

const OptLevel Levels[] = {OptLevel::Baseline, OptLevel::Partial,
                           OptLevel::Reassociation, OptLevel::Distribution};

TEST(FlatCFG, MatchesReferenceOnCorpus) {
  unsigned Files = 0, Checked = 0;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR)) {
    if (E.path().extension() != ".iloc")
      continue;
    ++Files;
    std::ifstream In(E.path());
    std::stringstream Text;
    Text << In.rdbuf();
    for (OptLevel L : Levels) {
      ParseResult R = parseModule(Text.str());
      ASSERT_TRUE(R.ok()) << R.Error;
      PipelineOptions PO = levelOptions(L);
      PO.Naming = InputNaming::Hashed;
      Checked += checkThroughPipeline(
          *R.M, PO, E.path().filename().string() + " " + optLevelName(L));
    }
  }
  EXPECT_GE(Files, 6u);
  EXPECT_GT(Checked, Files * 4);
}

TEST(FlatCFG, MatchesReferenceOnSuiteRoutines) {
  for (const Routine &R : benchmarkSuite())
    for (OptLevel L : Levels) {
      LowerResult LR = compileMiniFortran(R.Source, namingFor(L));
      ASSERT_TRUE(LR.ok()) << LR.Error;
      checkThroughPipeline(*LR.M, levelOptions(L),
                           R.Name + " " + optLevelName(L));
    }
}

TEST(FlatCFG, MatchesReferenceOnLoopChains) {
  for (unsigned Loops : {8u, 32u, 128u}) {
    LowerResult LR = compileMiniFortran(loopChain(Loops), NamingMode::Naive);
    ASSERT_TRUE(LR.ok()) << LR.Error;
    checkThroughPipeline(*LR.M, levelOptions(OptLevel::Distribution),
                         std::to_string(Loops) + " loops");
  }
}

TEST(FlatCFG, MatchesReferenceOnGeneratedPrograms) {
  unsigned Programs = 0;
  for (const std::string &Shape : fuzz::generatorShapeNames()) {
    fuzz::GeneratorOptions GO;
    ASSERT_TRUE(fuzz::shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= 90; ++Seed, ++Programs) {
      fuzz::FuzzProgram P = fuzz::generateProgram(Seed, GO, Shape);
      ParseResult R = parseModule(P.Text);
      ASSERT_TRUE(R.ok()) << R.Error;
      checkThroughPipeline(*R.M, levelOptions(OptLevel::Distribution),
                           Shape + "/" + std::to_string(Seed));
    }
  }
  EXPECT_EQ(Programs, 540u);
}

TEST(FlatCFG, ParserFoldsDuplicateEdgeAndKeepsUnreachable) {
  // The parser folds a cbr with both arms on one block, so ^j lists its
  // source once; a dead block keeps its successors but never appears as a
  // predecessor.
  ParseResult R = parseModule(R"(
func @f(%p:i64) {
^e:
  cbr %p, ^j, ^j
^dead:
  br ^j
^j:
  ret
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Function &F = *R.M->Functions[0];
  EXPECT_EQ(F.entry()->terminator().Op, Opcode::Br);
  ASSERT_TRUE(expectSameCFG(F, "folded duplicate edge"));
  CFG G = CFG::compute(F);
  ASSERT_EQ(G.preds(2).size(), 1u);
  EXPECT_EQ(G.preds(2)[0], 0u);
  EXPECT_EQ(G.succs(0).size(), 1u);
  EXPECT_EQ(G.succs(1).size(), 1u);
  EXPECT_FALSE(G.isReachable(1));
}

} // namespace
