//===- examples/epre_fuzz.cpp - Differential IR fuzzer driver -------------===//
///
/// \file
/// Campaign driver for the differential fuzzer: generates seeded programs,
/// runs the full oracle matrix over each, and on a mismatch bisects the
/// pipeline to the guilty pass, reduces the program, and writes an .iloc
/// reproducer next to a ready-to-paste replay command line.
///
///   epre-fuzz -seeds 1000                     # default campaign
///   epre-fuzz -seeds 200 -shapes loopy,phiweb -quick
///   epre-fuzz -seed-start 4242 -seeds 1 -inject   # planted PRE fault
///   epre-fuzz -replay repro.iloc                  # re-run one reproducer
///
//===----------------------------------------------------------------------===//

#include "fuzz/Bisect.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reduce.h"
#include "ir/Verifier.h"
#include "pre/PRE.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace epre;
using namespace epre::fuzz;

namespace {

struct Options {
  uint64_t Seeds = 100;
  uint64_t SeedStart = 1;
  std::vector<std::string> Shapes;
  bool Quick = false;
  bool Inject = false;
  std::string Replay;
  std::string OutDir = ".";
  uint64_t MaxOps = 0; ///< 0: keep the oracle default
};

void usage() {
  std::fprintf(stderr,
               "usage: epre-fuzz [options]\n"
               "  -seeds N        seeds per shape (default 100)\n"
               "  -seed-start N   first seed (default 1)\n"
               "  -shapes a,b,c   shape presets (default: all)\n"
               "  -quick          CI config subset instead of the full matrix\n"
               "  -inject         plant the PRE availability-meet fault\n"
               "  -replay FILE    run the oracle over one .iloc reproducer\n"
               "  -out DIR        directory for reproducer artifacts\n"
               "  -max-ops N      reference interpreter fuel\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // A numeric flag's value must be a plain decimal number: "abc" or "-1"
    // would otherwise become a vacuous 0-seed campaign or a wrapped fuel.
    auto NextNumber = [&](uint64_t &Out) {
      const char *V = Next();
      if (V && parseUnsigned(V, Out))
        return true;
      std::fprintf(stderr, "epre-fuzz: %s needs a non-negative number, got "
                   "'%s'\n", A.c_str(), V ? V : "");
      return false;
    };
    if (A == "-seeds") {
      if (!NextNumber(O.Seeds))
        return false;
      if (O.Seeds == 0) {
        std::fprintf(stderr, "epre-fuzz: -seeds 0 runs no programs\n");
        return false;
      }
    } else if (A == "-seed-start") {
      if (!NextNumber(O.SeedStart))
        return false;
    } else if (A == "-shapes") {
      const char *V = Next();
      if (!V)
        return false;
      std::stringstream SS(V);
      std::string S;
      while (std::getline(SS, S, ','))
        if (!S.empty())
          O.Shapes.push_back(S);
    } else if (A == "-quick") {
      O.Quick = true;
    } else if (A == "-inject") {
      O.Inject = true;
    } else if (A == "-replay") {
      const char *V = Next();
      if (!V)
        return false;
      O.Replay = V;
    } else if (A == "-out") {
      const char *V = Next();
      if (!V)
        return false;
      O.OutDir = V;
    } else if (A == "-max-ops") {
      if (!NextNumber(O.MaxOps))
        return false;
    } else {
      std::fprintf(stderr, "epre-fuzz: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  return true;
}

/// Loads an .iloc reproducer as a FuzzProgram, synthesizing deterministic
/// arguments from the entry function's parameter types. Corpus programs use
/// hash-exact memory comparison (MemWords left empty). Fails, printing the
/// first message, when the file does not parse or does not verify.
bool loadProgramFile(const std::string &Path, FuzzProgram &P) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "epre-fuzz: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  P.Text = SS.str();
  P.Shape = "corpus";
  P.MemBytes = 4096;

  std::string Err;
  std::unique_ptr<Module> M = parseModuleText(P.Text, &Err);
  if (!M || M->Functions.empty()) {
    std::fprintf(stderr, "epre-fuzz: parse error in '%s': %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  // A file the verifier rejects has no reference behavior to replay.
  std::vector<std::string> Errors = verifyModule(*M, SSAMode::Relaxed);
  if (!Errors.empty()) {
    std::fprintf(stderr, "epre-fuzz: verifier error in '%s': %s\n",
                 Path.c_str(), Errors.front().c_str());
    return false;
  }
  const Function &F = *M->Functions[0];
  int64_t NextI = 7;
  double NextF = 1.5;
  for (Reg R : F.params()) {
    if (F.regType(R) == Type::I64) {
      P.Args.push_back(RtValue::ofI(NextI));
      NextI = -NextI + 5;
    } else {
      P.Args.push_back(RtValue::ofF(NextF));
      NextF = -NextF + 0.75;
    }
  }
  return true;
}

/// Investigates one flagged program: bisect the first finding's config,
/// reduce, and write reproducer artifacts. Returns the reproducer path.
std::string investigate(const FuzzProgram &P, const OracleResult &OR,
                        const OracleOptions &OO, const Options &Opt) {
  const OracleFinding &F0 = OR.Findings.front();
  OracleConfig C;
  if (!findOracleConfig(F0.Config, Opt.Quick, C)) {
    std::fprintf(stderr, "  internal: config '%s' not found\n",
                 F0.Config.c_str());
    return "";
  }

  std::printf("  bisecting under config '%s'...\n", C.Name.c_str());
  BisectResult B = bisectMiscompile(P, C, OO);
  if (B.Bisected)
    std::printf("  guilty pass: '%s' (prefix %u of %u)%s%s\n",
                B.GuiltyPass.c_str(), B.PrefixLength, B.TotalPasses,
                B.Note.empty() ? "" : " — ", B.Note.c_str());
  else
    std::printf("  bisection inconclusive%s%s\n",
                B.Note.empty() ? "" : " — ", B.Note.c_str());

  std::printf("  reducing...\n");
  ReduceResult R = reduceMiscompile(P, C, OO);
  std::printf("  reduced: %u -> %u instructions, %u -> %u blocks "
              "(%u candidates tried, %u kept)\n",
              R.InstsBefore, R.InstsAfter, R.BlocksBefore, R.BlocksAfter,
              R.Tried, R.Kept);

  std::string Stem = Opt.OutDir + "/repro-" + P.Shape + "-" +
                     std::to_string(P.Seed);
  std::string IlocPath = Stem + ".iloc";
  {
    std::ofstream Out(IlocPath);
    Out << R.Text;
  }
  {
    std::ofstream Out(Stem + ".txt");
    Out << "config:  " << F0.Config << "\n"
        << "kind:    " << mismatchKindName(F0.Kind) << "\n"
        << "detail:  " << F0.Detail << "\n"
        << "guilty:  " << (B.Bisected ? B.GuiltyPass : "<unbisected>") << "\n"
        << "seed:    " << P.Seed << " (shape " << P.Shape << ")\n"
        << "replay:  epre-fuzz -replay " << IlocPath
        << (Opt.Inject ? " -inject" : "")
        << (Opt.Quick ? " -quick" : "")
        << "\n\n--- original ---\n"
        << P.Text;
  }
  std::printf("  reproducer: %s\n", IlocPath.c_str());
  std::printf("  replay:     epre-fuzz -replay %s%s%s\n", IlocPath.c_str(),
              Opt.Inject ? " -inject" : "", Opt.Quick ? " -quick" : "");
  return IlocPath;
}

void reportFindings(const FuzzProgram &P, const OracleResult &OR) {
  std::printf("MISMATCH: shape %s seed %llu\n", P.Shape.c_str(),
              (unsigned long long)P.Seed);
  for (const OracleFinding &F : OR.Findings)
    std::printf("  [%s] %s: %s\n", F.Config.c_str(),
                mismatchKindName(F.Kind), F.Detail.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    usage();
    return 2;
  }

  if (Opt.Inject)
    epre::fault::setPREDropAvailabilityMeet(true);

  OracleOptions OO;
  if (Opt.MaxOps)
    OO.RefMaxOps = Opt.MaxOps;
  std::vector<OracleConfig> Configs = oracleConfigs(Opt.Quick);

  // Single-file replay mode.
  if (!Opt.Replay.empty()) {
    FuzzProgram P;
    if (!loadProgramFile(Opt.Replay, P))
      return 2;
    OracleResult OR = runDifferentialOracle(P, OO, Configs);
    if (OR.Mismatch) {
      reportFindings(P, OR);
      investigate(P, OR, OO, Opt);
      return 1;
    }
    std::printf("replay clean: %u configs, %s\n", OR.ConfigsRun,
                OR.Inconclusive ? "inconclusive (fuel)" : "no mismatch");
    return 0;
  }

  std::vector<std::string> Shapes =
      Opt.Shapes.empty() ? generatorShapeNames() : Opt.Shapes;
  for (const std::string &S : Shapes) {
    GeneratorOptions GO;
    if (!shapeOptions(S, GO)) {
      std::fprintf(stderr, "epre-fuzz: unknown shape '%s'\n", S.c_str());
      return 2;
    }
  }

  uint64_t Ran = 0, Mismatches = 0, Inconclusive = 0, WeakWarnings = 0;
  int Exit = 0;
  for (const std::string &S : Shapes) {
    GeneratorOptions GO;
    shapeOptions(S, GO);
    for (uint64_t I = 0; I < Opt.Seeds; ++I) {
      uint64_t Seed = Opt.SeedStart + I;
      FuzzProgram P = generateProgram(Seed, GO, S);
      OracleResult OR = runDifferentialOracle(P, OO, Configs);
      ++Ran;
      if (OR.Inconclusive)
        ++Inconclusive;
      WeakWarnings += OR.WeakWarnings.size();
      for (const std::string &W : OR.WeakWarnings)
        std::printf("weak: shape %s seed %llu: %s\n", S.c_str(),
                    (unsigned long long)Seed, W.c_str());
      if (OR.Mismatch) {
        ++Mismatches;
        Exit = 1;
        reportFindings(P, OR);
        investigate(P, OR, OO, Opt);
      }
      if (Ran % 100 == 0)
        std::printf("... %llu programs, %llu mismatches\n",
                    (unsigned long long)Ran, (unsigned long long)Mismatches);
    }
  }

  std::printf("campaign: %llu programs (%zu shapes x %llu seeds), "
              "%zu configs%s\n",
              (unsigned long long)Ran, Shapes.size(),
              (unsigned long long)Opt.Seeds, Configs.size(),
              Opt.Inject ? ", PRE fault injected" : "");
  std::printf("  mismatches:    %llu\n", (unsigned long long)Mismatches);
  std::printf("  inconclusive:  %llu\n", (unsigned long long)Inconclusive);
  std::printf("  weak warnings: %llu\n", (unsigned long long)WeakWarnings);
  return Exit;
}
