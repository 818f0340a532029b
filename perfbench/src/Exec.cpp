//===- perfbench/src/Exec.cpp - The exec workload -------------------------===//
///
/// The suite routines are compiled once at the four levels during set-up;
/// the timed loop interprets every compiled routine on its inputs,
/// alternating plain runs and runs feeding a ProfileCollector (the way
/// speculative self-training and suite_report use the engine). Every run
/// is checked against the unoptimized reference and must repeat its
/// dynamic operation count exactly.
///
//===----------------------------------------------------------------------===//

#include "Compile.h"

#include "instrument/Profile.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

using namespace perfbench;
using namespace epre;

namespace {

struct Compiled {
  CompileJob Job;
  CompileOut Out;
  uint64_t DynOps = 0;
};

std::vector<Compiled> compileAll(Result &R) {
  std::vector<Compiled> All;
  Tracer Off;
  for (CompileJob &J : makeSuiteJobs()) {
    Compiled C;
    C.Job = std::move(J);
    C.Out = compileOnce(C.Job, Off, nullptr);
    if (!C.Out.Error.empty())
      R.fail(C.Job.Name + ": " + C.Out.Error);
    All.push_back(std::move(C));
  }
  return All;
}

} // namespace

void perfbench::runExec(const RunOptions &O, Result &R) {
  std::vector<Compiled> All;
  std::vector<double> Setup;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    uint64_t T0 = nowNs();
    All = compileAll(R);
    Setup.push_back(double(nowNs() - T0) / 1e9);
  }
  if (!R.Problems.empty())
    return;
  uint64_t Digest = hashString("exec");
  for (const Compiled &C : All)
    Digest = hashCombine(Digest, hashString(C.Out.Text));
  R.InputsDigest = Digest;

  std::vector<size_t> Perm(All.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    Perm[I] = I;
  Rng(O.Seed).shuffle(Perm);

  // One class per compiled routine and mode (plain, profiled).
  Tracer T;
  MemoryImage Mem;
  ProfileCollector Prof;
  BestTimes Best[2] = {BestTimes(2 * All.size()), BestTimes(2 * All.size())};
  std::vector<uint64_t> Work(2 * All.size());
  std::vector<bool> Seen(All.size());
  uint64_t Runs = 0, Samples = 0, TracedOps = 0;
  const uint64_t Deadline = nowNs() + uint64_t(O.Seconds * 1e9);
  for (unsigned Round = 0; Round == 0 || nowNs() < Deadline; ++Round) {
    // As in timeCompiles: traced runs trace every other pair of rounds.
    bool Traced = O.Trace && (Round / 2) % 2 == 1;
    T.setOn(Traced);
    for (size_t Idx : Perm) {
      if (Round > 0 && nowNs() >= Deadline)
        break;
      Compiled &C = All[Idx];
      T.setOp(uint32_t(Runs));
      // Each routine alternates between plain and profiled rounds.
      bool Profiled = (Runs++ + Round) % 2 == 1;
      ++R.Attempted;
      uint64_t T0 = nowNs();
      ExecResult E = execute(*C.Out.F, C.Job.In, Mem, T,
                             Profiled ? &Prof : nullptr);
      uint64_t D = nowNs() - T0;
      size_t Class = 2 * Idx + Profiled;
      Best[Traced].add(Class, D);
      Work[Class] = E.DynOps;
      ++(Traced ? TracedOps : Samples);
      std::string Err = compareOutcome(C.Job.Ref, outcomeOf(E, std::move(Mem)),
                                       C.Job.FPLoose);
      if (Err.empty() && Seen[Idx] && E.DynOps != C.DynOps)
        Err = "dynamic operation count differs between two runs";
      if (!Err.empty()) {
        ++R.Failed;
        R.fail(C.Job.Name + " (" + optLevelName(C.Job.PO.Level) + "): " + Err);
        continue;
      }
      Seen[Idx] = true;
      C.DynOps = E.DynOps;
    }
  }

  CountLog Log;
  uint64_t DynOps = 0, Insts = 0;
  for (const Compiled &C : All) {
    uint64_t N = C.Out.F->staticOperationCount();
    Log.add(C.DynOps);
    Log.add(N);
    DynOps += C.DynOps;
    Insts += N;
  }
  R.CountsDigest = Log.digest();
  if (!O.Trace) {
    LatencySummary L = summarize(nonZero(Best[0].best()));
    R.set("setup_s", medianOf(Setup), "s");
    R.set("latency_ms_p50", L.P50Ms, "ms");
    R.set("latency_ms_tail", L.TailMs, "ms");
    R.set("work_per_s", Best[0].rate(Work), "1/s");
    R.set("dyn_ops", double(DynOps), "count");
    R.set("code_insts", double(Insts), "count");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.Notes.push_back(strprintf(
        "execution latency over %zu (routine, level, mode) classes, each the "
        "best of its %.1f repeats on average: p50 %.4f ms, tail p%.2f %.4f "
        "ms; %.0f dynamic ops/s",
        L.Samples, double(Samples) / double(L.Samples ? L.Samples : 1),
        L.P50Ms, L.TailPct, L.TailMs, Best[0].rate(Work)));
    return;
  }
  reportLayers(T, TracedOps, R);
  double Untraced = Best[0].rate(Work), Traced = Best[1].rate(Work);
  if (Untraced > 0 && Traced > 0)
    R.Metrics["trace.overhead_pct"].Value = (Untraced / Traced - 1) * 100;
  R.Notes.push_back(strprintf(
      "tracing overhead: untraced %.0f, traced %.0f dynamic ops/s (%.2f%%)",
      Untraced, Traced, R.Metrics["trace.overhead_pct"].Value));
  writeTrace(T, O, R);
}
