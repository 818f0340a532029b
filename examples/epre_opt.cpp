//===- examples/epre_opt.cpp - Pass-by-pass ILOC filter -------------------===//
///
/// The paper structured its optimizer as "a sequence of passes, where each
/// pass is a Unix filter that consumes and produces ILOC". This tool is
/// that filter: textual IR on stdin (or a file), a pass list on the
/// command line, textual IR on stdout.
///
///   epre_opt [FILE] -passes=ssa,fwdprop,reassoc,gvn,pre,...
///   epre_opt [FILE] -O=distribution [-strategy=lcm] [-gvn=awz] [-j N]
///
/// Passes: ssa destroyssa fwdprop negnorm reassoc distribute osr gvn dvnt
///         pre pre-mr pre-spec cse constprop peephole dce coalesce
///         simplifycfg verify
///
/// Observability (both modes):
///   -time-passes        hierarchical wall-clock report on stderr
///   -trace-out=FILE     Chrome trace_event JSON (chrome://tracing, Perfetto)
///   -remarks[=p1,p2]    optimization remarks on stderr (optionally only
///                       from the named passes)
///   -remarks-json       render remarks as JSON instead of text
///   -stats              the aggregate statsJSON() document on stderr
///   -print-changed      dump IR after each pass that changed it
///
/// Dynamic profiling (zero-argument functions are interpreted against a
/// 4 KiB zeroed memory image; functions with parameters are skipped):
///   -profile-out=FILE   run the OPTIMIZED module and write its dynamic
///                       block/edge profile (epre-dynamic-profile-v1 JSON)
///   -profile-in=FILE    attach a saved profile as the pipeline's
///                       profile-guided input (required by
///                       -strategy=speculative and the pre-spec pass;
///                       docs/speculative-pre.md)
///   -hot-remarks[=BASE] remarks sorted by dynamic impact on stderr: each
///                       remark is weighted by its block's execution count
///                       in a baseline profile (BASE, a -profile-out file;
///                       without BASE, the UNOPTIMIZED input is profiled
///                       as its own baseline). Implies -remarks.
///
/// Example:
///   ./build/examples/epre_opt in.iloc -passes=fwdprop,reassoc,gvn,pre
///       -remarks=pre -time-passes   (one command line)
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "gvn/DVNT.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "gvn/ValueNumbering.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/ConstantPropagation.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/Peephole.h"
#include "opt/SimplifyCFG.h"
#include "opt/StrengthReduction.h"
#include "pipeline/Pipeline.h"
#include "pre/PRE.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace epre;

namespace {

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Runs one named pass through the unified entry points. The reassociation
/// family needs ranks, which must be computed in SSA form; this driver
/// recomputes them on demand and keeps them alive across
/// fwdprop/negnorm/reassoc/distribute.
struct PassDriver {
  Function &F;
  PassContext Ctx;
  /// This function's entry of -profile-in, if any (pre-spec reads it).
  const FunctionProfile *Profile = nullptr;
  RankMap Ranks;
  bool HaveRanks = false;
  /// The input cannot take the pass at all (not a pass failure): exit 2.
  bool Rejected = false;

  PassDriver(Function &F, StatsRegistry &SR, PassInstrumentation *PI,
             const ProfileDoc *ProfileIn = nullptr)
      : F(F), Ctx(&SR, PI) {
    if (ProfileIn)
      Profile = ProfileIn->find(F.name());
  }

  bool run(const std::string &Name) {
    if ((Name == "ssa" || Name == "osr" || Name == "dvnt" || Name == "gvn") &&
        F.hasPhi()) {
      std::fprintf(stderr,
                   "error: pass '%s' builds SSA form and needs phi-free "
                   "input; run 'destroyssa' first\n",
                   Name.c_str());
      Rejected = true;
      return false;
    }
    if (Name == "ssa") {
      SSABuildPass().run(F, Ctx);
      Ranks = RankMap::compute(F, CFG::compute(F));
      HaveRanks = true;
      return true;
    }
    if (Name == "destroyssa") {
      SSADestroyPass().run(F, Ctx);
      return true;
    }
    if (Name == "fwdprop") {
      if (!ensureRanks())
        return false;
      uint64_t Before = Ctx.stats()->get("fwdprop", "ops_before");
      uint64_t After = Ctx.stats()->get("fwdprop", "ops_after");
      ForwardPropPass(Ranks).run(F, Ctx);
      Before = Ctx.stats()->get("fwdprop", "ops_before") - Before;
      After = Ctx.stats()->get("fwdprop", "ops_after") - After;
      std::fprintf(stderr, "fwdprop: %llu -> %llu static ops (x%.3f)\n",
                   (unsigned long long)Before, (unsigned long long)After,
                   Before ? double(After) / double(Before) : 1.0);
      return true;
    }
    if (Name == "negnorm" || Name == "reassoc" || Name == "distribute") {
      if (!ensureRanks())
        return false;
      ReassociateOptions RO;
      RO.Distribute = Name == "distribute";
      if (Name == "negnorm")
        NegNormPass(Ranks, RO).run(F, Ctx);
      else
        ReassociatePass(Ranks, RO).run(F, Ctx);
      return true;
    }
    if (Name == "osr") {
      StrengthReductionPass P;
      P.run(F, Ctx);
      const SRStats &S = P.lastStats();
      std::fprintf(stderr, "osr: %u loops, %u basic IVs, %u reduced\n",
                   S.LoopsVisited, S.BasicIVs, S.Reduced);
      return true;
    }
    if (Name == "dvnt") {
      DVNTPass P;
      P.run(F, Ctx);
      const DVNTStats &S = P.lastStats();
      std::fprintf(stderr, "dvnt: %u redundant, %u meaningless phis, "
                   "%u duplicate phis\n",
                   S.Redundant, S.MeaninglessPhis, S.RedundantPhis);
      return true;
    }
    if (Name == "gvn") {
      GVNPass P;
      P.run(F, Ctx);
      const GVNStats &S = P.lastStats();
      std::fprintf(stderr, "gvn: %u regs in %u classes, %u merged\n",
                   S.Registers, S.Classes, S.MergedDefs);
      return true;
    }
    if (Name == "pre" || Name == "pre-mr" || Name == "pre-spec" ||
        Name == "cse") {
      PREStrategy Strat = Name == "pre"      ? PREStrategy::LazyCodeMotion
                          : Name == "pre-mr" ? PREStrategy::MorelRenvoise
                          : Name == "pre-spec" ? PREStrategy::Speculative
                                               : PREStrategy::GlobalCSE;
      if (Strat == PREStrategy::Speculative && !Profile) {
        std::fprintf(stderr,
                     "error: pre-spec needs a dynamic profile for this "
                     "function; pass -profile-in=FILE\n");
        return false;
      }
      PREPass P(Strat, Profile);
      P.run(F, Ctx);
      const PREStats &S = P.lastStats();
      std::fprintf(stderr, "%s: universe %u, +%u/-%u (%u speculated)\n",
                   Name.c_str(), S.UniverseSize, S.Inserted, S.Deleted,
                   S.Speculated);
      return true;
    }
    if (Name == "constprop")
      return SCCPPass().run(F, Ctx), true;
    if (Name == "peephole")
      return PeepholePass().run(F, Ctx), true;
    if (Name == "dce")
      return DCEPass().run(F, Ctx), true;
    if (Name == "coalesce") {
      uint64_t Before = Ctx.stats()->get("coalesce", "copies_removed");
      CopyCoalescingPass().run(F, Ctx);
      std::fprintf(stderr, "coalesce: removed %llu copies\n",
                   (unsigned long long)(Ctx.stats()->get("coalesce",
                                                         "copies_removed") -
                                        Before));
      return true;
    }
    if (Name == "simplifycfg")
      return SimplifyCFGPass().run(F, Ctx), true;
    if (Name == "verify") {
      std::vector<std::string> E = verifyFunction(F, SSAMode::Relaxed);
      for (const std::string &Msg : E)
        std::fprintf(stderr, "verify: %s\n", Msg.c_str());
      return E.empty();
    }
    std::fprintf(stderr, "error: unknown pass '%s'\n", Name.c_str());
    return false;
  }

  bool ensureRanks() {
    if (HaveRanks)
      return true;
    std::fprintf(stderr,
                 "error: this pass needs ranks; run 'ssa' first\n");
    return false;
  }
};

/// Interprets every zero-argument function of \p M against a fresh zeroed
/// memory image and returns the per-function dynamic profiles. Functions
/// with parameters cannot be driven standalone and are skipped with a note.
ProfileDoc profileModule(Module &M) {
  ProfileDoc Doc;
  for (auto &F : M.Functions) {
    if (!F->params().empty()) {
      std::fprintf(stderr, "profile: skipping @%s (takes arguments)\n",
                   F->name().c_str());
      continue;
    }
    MemoryImage Mem(4096);
    ProfileCollector Prof;
    ExecResult E = interpret(*F, {}, Mem, ExecLimits(), &Prof);
    if (E.Trapped)
      std::fprintf(stderr, "profile: @%s trapped: %s\n", F->name().c_str(),
                   E.TrapReason.c_str());
    // Trapped runs still yield the profile of everything executed.
    Doc.Profiles.push_back(Prof.finalize(*F));
  }
  return Doc;
}

} // namespace

int main(int argc, char **argv) {
  std::string File;
  std::string PassList;
  std::string TraceOut;
  std::string ProfileOut;
  std::string ProfileInFile;
  std::string HotRemarkBaseline;
  bool HaveLevel = false;
  bool TimePasses = false, WantRemarks = false, RemarksJSON = false;
  bool WantStats = false, PrintChanged = false, HotRemarks = false;
  unsigned Jobs = 1;
  std::vector<std::string> RemarkFilter;
  PipelineOptions PO;
  PO.Verify = false; // filter input is hand-written; do not abort the tool

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("-passes=", 0) == 0) {
      PassList = A.substr(8);
    } else if (A.rfind("-O=", 0) == 0) {
      if (!parseOptLevel(A.substr(3), PO.Level)) {
        std::fprintf(stderr, "error: unknown opt level '%s'\n",
                     A.substr(3).c_str());
        return 2;
      }
      HaveLevel = true;
    } else if (A.rfind("-strategy=", 0) == 0) {
      if (!parsePREStrategy(A.substr(10), PO.Strategy)) {
        std::fprintf(stderr, "error: unknown PRE strategy '%s'\n",
                     A.substr(10).c_str());
        return 2;
      }
    } else if (A.rfind("-gvn=", 0) == 0) {
      if (!parseGVNEngine(A.substr(5), PO.Engine)) {
        std::fprintf(stderr, "error: unknown GVN engine '%s' (valid: %s)\n",
                     A.substr(5).c_str(), gvnEngineNames().c_str());
        return 2;
      }
    } else if (A.rfind("-naming=", 0) == 0) {
      if (!parseInputNaming(A.substr(8), PO.Naming)) {
        std::fprintf(stderr, "error: unknown naming discipline '%s'\n",
                     A.substr(8).c_str());
        return 2;
      }
    } else if (A.rfind("-j", 0) == 0 && (A.size() > 2 || I + 1 < argc)) {
      std::string V = A.size() > 2 ? A.substr(2) : argv[++I];
      uint64_t N = 0;
      if (!parseUnsigned(V, N, UINT_MAX)) {
        std::fprintf(stderr, "error: -j needs a worker count, got '%s'\n",
                     V.c_str());
        return 2;
      }
      Jobs = unsigned(N);
    } else if (A == "-time-passes") {
      TimePasses = true;
    } else if (A.rfind("-trace-out=", 0) == 0) {
      TraceOut = A.substr(11);
    } else if (A == "-remarks") {
      WantRemarks = true;
    } else if (A.rfind("-remarks=", 0) == 0) {
      WantRemarks = true;
      RemarkFilter = splitList(A.substr(9));
    } else if (A == "-remarks-json") {
      WantRemarks = true;
      RemarksJSON = true;
    } else if (A == "-stats") {
      WantStats = true;
    } else if (A == "-print-changed") {
      PrintChanged = true;
    } else if (A.rfind("-profile-out=", 0) == 0) {
      ProfileOut = A.substr(13);
    } else if (A.rfind("-profile-in=", 0) == 0) {
      ProfileInFile = A.substr(12);
    } else if (A == "-hot-remarks") {
      HotRemarks = WantRemarks = true;
    } else if (A.rfind("-hot-remarks=", 0) == 0) {
      HotRemarks = WantRemarks = true;
      HotRemarkBaseline = A.substr(13);
    } else if (!A.empty() && A[0] != '-') {
      File = A;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [FILE] -passes=p1,p2,... | -O=LEVEL\n"
          "  [-strategy=lcm|morel-renvoise|gcse|speculative]\n"
          "  [-gvn=awz|dvnt] [-naming=hashed|naive] [-j N]\n"
          "  [-time-passes]\n"
          "  [-trace-out=FILE] [-remarks[=p1,p2]] [-remarks-json]\n"
          "  [-stats] [-print-changed] [-profile-out=FILE]\n"
          "  [-profile-in=FILE] [-hot-remarks[=BASELINE.json]]\n"
          "\n"
          "  -j N: optimize N functions in parallel in -O mode (default 1;\n"
          "        -j 0 = one worker per hardware thread). Output is\n"
          "        deterministic at any -j: the parallel driver merges each\n"
          "        function's counters/remarks in module order, so printed\n"
          "        IR, -stats, and -remarks are bit-identical to -j 1.\n",
          argv[0]);
      return 2;
    }
  }

  std::stringstream Buf;
  if (File.empty()) {
    Buf << std::cin.rdbuf();
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
      return 1;
    }
    Buf << In.rdbuf();
  }

  ParseResult R = parseModule(Buf.str());
  if (!R.ok()) {
    std::fprintf(stderr, "parse error: %s\n", R.Error.c_str());
    return 1;
  }

  InstrumentationOptions IO;
  IO.TimePasses = TimePasses || !TraceOut.empty();
  IO.CollectRemarks = WantRemarks;
  IO.RemarkPasses = RemarkFilter;
  IO.PrintChangedIR = PrintChanged;
  PassInstrumentation PI(IO);

  // Profile-guided input: the document the pipeline consumes (speculative
  // PRE). PO.ProfileIn points at it for the whole run.
  ProfileDoc ProfileIn;
  if (!ProfileInFile.empty()) {
    std::string Err;
    if (!ProfileDoc::loadFromFile(ProfileInFile, ProfileIn, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    PO.ProfileIn = &ProfileIn;
  }

  // Establish the hot-remark baseline before optimizing: either a saved
  // -profile-out document, or a profiled run of the unoptimized input.
  ProfileDoc Baseline;
  if (HotRemarks) {
    if (!HotRemarkBaseline.empty()) {
      std::string Err;
      if (!ProfileDoc::loadFromFile(HotRemarkBaseline, Baseline, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
    } else {
      ParseResult Pristine = parseModule(Buf.str());
      Baseline = profileModule(*Pristine.M);
    }
  }

  if (HaveLevel) {
    std::string Err;
    std::optional<PipelineOptions> Valid = PipelineOptions::create(PO, &Err);
    if (!Valid) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    Valid->Instr = &PI;
    if (Jobs == 1)
      for (auto &F : R.M->Functions)
        optimizeFunction(*F, *Valid);
    else
      runPipelineParallel(*R.M, *Valid, Jobs);
  } else {
    if (Jobs != 1)
      std::fprintf(stderr,
                   "note: -j applies to -O mode only; -passes runs serial\n");
    for (auto &F : R.M->Functions) {
      StatsRegistry FR;
      PassDriver Driver(*F, FR, &PI, PO.ProfileIn);
      for (const std::string &P : splitList(PassList))
        if (!Driver.run(P))
          return Driver.Rejected ? 2 : 1;
      PI.stats().merge(FR);
    }
  }

  if (TimePasses)
    std::fprintf(stderr, "%s", PI.timers().report().c_str());
  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut);
    Out << PI.timers().toChromeTrace();
    std::fprintf(stderr, "trace written to %s\n", TraceOut.c_str());
  }
  if (HotRemarks) {
    std::vector<HotRemark> Hot =
        annotateHotness(PI.remarks().remarks(), Baseline);
    std::fprintf(stderr, "%s", renderHotRemarks(Hot).c_str());
  } else if (WantRemarks) {
    std::fprintf(stderr, "%s",
                 RemarksJSON ? PI.remarks().toJSON().c_str()
                             : PI.remarks().toText().c_str());
  }
  if (WantStats)
    std::fprintf(stderr, "%s\n", PI.statsJSON().c_str());

  if (!ProfileOut.empty()) {
    ProfileDoc Doc = profileModule(*R.M);
    std::ofstream Out(ProfileOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", ProfileOut.c_str());
      return 1;
    }
    Out << Doc.toJSON() << "\n";
    std::fprintf(stderr, "profile written to %s\n", ProfileOut.c_str());
  }

  std::printf("%s", printModule(*R.M).c_str());
  return 0;
}
