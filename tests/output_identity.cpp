//===- tests/output_identity.cpp - Output fingerprints of a compile matrix -===//
///
/// Compiles a fixed matrix of 15,142 inputs and prints one line per compile:
/// its label, then the FNV-1a hash and length of the printed module, of the
/// counter registries (the one optimizeFunction returns and the
/// instrumentation sink's) and of the remark lines. A refactoring that must
/// not change the optimizer's output runs this program built from the old
/// and from the new sources and diffs the two outputs.
///
/// The matrix, each compile at the four measured levels × {awz, dvnt} ×
/// {lcm, gcse, morel-renvoise}:
///  - the 50 suite routines, plus a self-trained speculative compile per
///    routine, level and engine (1,600);
///  - the tests/corpus files (144);
///  - loopChain of 8–256 loops in both naming disciplines, plus one
///    self-trained speculative compile per size (294);
///  - loops carrying 8, 64 and 512 variables, as a ring and as a rotation
///    (144);
///  - 540 FuzzGen programs, 6 shapes × 90 seeds (12,960).
///
/// Takes no options: `./build/tests/output_identity > out.txt`.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fuzz/FuzzGen.h"
#include "instrument/Profile.h"
#include "suite/Suite.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;
using namespace epre::test;

namespace {

const OptLevel Levels[] = {OptLevel::Baseline, OptLevel::Partial,
                           OptLevel::Reassociation, OptLevel::Distribution};
const PREStrategy Strategies[] = {PREStrategy::LazyCodeMotion,
                                  PREStrategy::GlobalCSE,
                                  PREStrategy::MorelRenvoise};

std::string fingerprint(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return strprintf("%016llx:%zu", (unsigned long long)H, S.size());
}

/// Optimizes \p M under \p Opts and prints the compile's line.
void compileAndPrint(const std::string &Label, Module &M,
                     PipelineOptions Opts) {
  std::string Err;
  std::optional<PipelineOptions> PO = PipelineOptions::create(Opts, &Err);
  if (!PO) {
    std::printf("%s rejected: %s\n", Label.c_str(), Err.c_str());
    return;
  }
  InstrumentationOptions IO;
  IO.CollectRemarks = true;
  PassInstrumentation PI(IO);
  PO->Instr = &PI;
  std::string Counters;
  for (auto &F : M.Functions)
    Counters += optimizeFunction(*F, *PO).Registry.toJSON();
  Counters += PI.stats().toJSON();
  std::printf("%s ir=%s counters=%s remarks=%s\n", Label.c_str(),
              fingerprint(printModule(M)).c_str(),
              fingerprint(Counters).c_str(),
              fingerprint(PI.remarks().toText()).c_str());
}

/// The module of \p Text parsed once more, so every compile starts fresh.
std::unique_ptr<Module> parse(const std::string &Text) {
  ParseResult PR = parseModule(Text);
  if (!PR.ok()) {
    std::fprintf(stderr, "parse error: %s\n", PR.Error.c_str());
    std::exit(1);
  }
  return std::move(PR.M);
}

/// The block/edge profile of \p Name in \p M interpreted on \p Args.
ProfileDoc selfProfile(Module &M, const std::string &Name,
                       size_t LocalBytes,
                       const std::function<std::vector<RtValue>(MemoryImage &)>
                           &MakeArgs) {
  Function *F = M.find(Name);
  MemoryImage Mem(LocalBytes);
  std::vector<RtValue> Args = MakeArgs(Mem);
  ProfileCollector PC;
  interpret(*F, Args, Mem, ExecLimits(), &PC);
  ProfileDoc Doc;
  Doc.Profiles.push_back(PC.finalize(*F));
  return Doc;
}

InputNaming inputNaming(NamingMode N) {
  return N == NamingMode::Hashed ? InputNaming::Hashed : InputNaming::Naive;
}

/// Lowers \p Source in \p Mode, exiting on a front-end error.
LowerResult lower(const std::string &Source, NamingMode Mode) {
  LowerResult LR = compileMiniFortran(Source, Mode);
  if (!LR.ok()) {
    std::fprintf(stderr, "front-end error: %s\n", LR.Error.c_str());
    std::exit(1);
  }
  return LR;
}

size_t localBytes(const LowerResult &LR, const std::string &Name) {
  for (const RoutineInfo &RI : LR.Routines)
    if (RI.Name == Name)
      return RI.LocalMemBytes;
  return 0;
}

/// One Mini-FORTRAN routine at every level × engine × strategy in naming
/// \p Mode (the level's own naming when unset), plus, with \p MakeArgs,
/// self-trained speculative compiles at \p SpecLevels.
void compileRoutine(
    const std::string &Label, const std::string &Name,
    const std::string &Source, std::optional<NamingMode> Mode,
    const std::function<std::vector<RtValue>(MemoryImage &)> &MakeArgs,
    const std::vector<std::pair<OptLevel, GVNEngine>> &SpecAt) {
  for (OptLevel L : Levels) {
    NamingMode N = Mode ? *Mode : namingFor(L);
    LowerResult LR = lower(Source, N);
    std::string Text = printModule(*LR.M);
    for (GVNEngine E : AllGVNEngines)
      for (PREStrategy S : Strategies) {
        PipelineOptions Opts;
        Opts.Level = L;
        Opts.Engine = E;
        Opts.Strategy = S;
        Opts.Naming = inputNaming(N);
        compileAndPrint(strprintf("%s/%s/%s/%s", Label.c_str(),
                                  optLevelName(L), gvnEngineName(E),
                                  preStrategyName(S)),
                        *parse(Text), Opts);
      }
    for (const auto &[SL, SE] : SpecAt) {
      if (SL != L)
        continue;
      ProfileDoc Doc =
          selfProfile(*LR.M, Name, localBytes(LR, Name), MakeArgs);
      PipelineOptions Opts;
      Opts.Level = L;
      Opts.Engine = SE;
      Opts.Strategy = PREStrategy::Speculative;
      Opts.Naming = inputNaming(N);
      Opts.ProfileIn = &Doc;
      compileAndPrint(strprintf("%s/%s/%s/speculative", Label.c_str(),
                                optLevelName(L), gvnEngineName(SE)),
                      *parse(Text), Opts);
    }
  }
}

/// An ILOC module at every level × engine × strategy, in each level's
/// naming.
void compileText(const std::string &Label, const std::string &Text) {
  for (OptLevel L : Levels)
    for (GVNEngine E : AllGVNEngines)
      for (PREStrategy S : Strategies) {
        PipelineOptions Opts;
        Opts.Level = L;
        Opts.Engine = E;
        Opts.Strategy = S;
        Opts.Naming = inputNaming(namingFor(L));
        compileAndPrint(strprintf("%s/%s/%s/%s", Label.c_str(),
                                  optLevelName(L), gvnEngineName(E),
                                  preStrategyName(S)),
                        *parse(Text), Opts);
      }
}

} // namespace

int main() {
  std::vector<std::pair<OptLevel, GVNEngine>> EveryLevelAndEngine;
  for (OptLevel L : Levels)
    for (GVNEngine E : AllGVNEngines)
      EveryLevelAndEngine.push_back({L, E});
  for (const Routine &R : benchmarkSuite())
    compileRoutine("suite/" + R.Name, R.Name, R.Source, std::nullopt,
                   R.MakeArgs, EveryLevelAndEngine);

  std::vector<std::filesystem::path> Corpus;
  for (const auto &Entry :
       std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (Entry.path().extension() == ".iloc")
      Corpus.push_back(Entry.path());
  std::sort(Corpus.begin(), Corpus.end());
  for (const std::filesystem::path &P : Corpus) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    compileText("corpus/" + P.filename().string(), SS.str());
  }

  auto ChainArgs = [](MemoryImage &) {
    return std::vector<RtValue>{RtValue::ofF(1.5), RtValue::ofF(2.5),
                                RtValue::ofI(20), RtValue::ofI(10)};
  };
  for (unsigned Loops : {8u, 16u, 32u, 64u, 128u, 256u}) {
    std::string Src = loopChain(Loops);
    std::string Label = strprintf("chain%u", Loops);
    compileRoutine(Label + "/hashed", "chain", Src, NamingMode::Hashed,
                   ChainArgs, {});
    compileRoutine(Label + "/naive", "chain", Src, NamingMode::Naive,
                   ChainArgs, {{OptLevel::Distribution, GVNEngine::AWZ}});
  }

  for (unsigned K : {8u, 64u, 512u}) {
    compileText(strprintf("ring%u", K), carriedRing(K));
    compileText(strprintf("rotation%u", K), carriedRotation(K));
  }

  for (const std::string &Shape : fuzz::generatorShapeNames()) {
    fuzz::GeneratorOptions GO;
    fuzz::shapeOptions(Shape, GO);
    for (uint64_t Seed = 1; Seed <= 90; ++Seed)
      compileText(strprintf("fuzz/%s/%llu", Shape.c_str(),
                            (unsigned long long)Seed),
                  fuzz::generateProgram(Seed, GO, Shape).Text);
  }
  return 0;
}
