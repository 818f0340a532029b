//===- perfbench/src/main.cpp - The repository benchmark program ----------===//
///
/// perfbench --workload suite|bigfn|serve|exec --seed N --seconds S
///           --trace 0|1 [--root DIR] [--state-dir DIR] [--trace-dir DIR]
///           [--work-dir DIR]
/// perfbench --self-test [--root DIR]
///
/// Prints notes as '#' lines, then, as its last line, one JSON object:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
/// a traced run (--trace 1). README.md in this directory defines them.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "interp/Predecode.h"
#include "pre/PRE.h"
#include "support/StringUtil.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;
using epre::strprintf;

namespace {

const char *const EndToEnd[] = {"setup_s",   "latency_ms_p50", "latency_ms_tail",
                                "work_per_s", "dyn_ops",        "code_insts",
                                "peak_rss_mb"};

/// Numbers from an unoptimised or assertion-enabled build measure the
/// wrong program; refuse them.
bool optimisedBuild(std::string &Why) {
  std::string Type = PERFBENCH_BUILD_TYPE;
#ifndef __OPTIMIZE__
  Why = "built without optimisation";
  return false;
#endif
#ifndef NDEBUG
  Why = "built with assertions enabled";
  return false;
#endif
  if (Type != "Release" && Type != "RelWithDebInfo") {
    Why = "build type '" + Type + "' is not Release or RelWithDebInfo";
    return false;
  }
  return true;
}

void printResult(const Result &R, bool Trace) {
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  for (const std::string &P : R.Problems) {
    std::printf("# PROBLEM: %s\n", P.c_str());
    std::fprintf(stderr, "perfbench: %s\n", P.c_str());
  }
  std::vector<std::string> Names;
  if (Trace)
    Names = perLayerMetricNames();
  else
    Names.assign(std::begin(EndToEnd), std::end(EndToEnd));
  bool Correct = R.Problems.empty() && R.Failed == 0 && R.Attempted > 0;
  std::string M;
  for (const std::string &N : Names) {
    auto It = R.Metrics.find(N);
    double V = It == R.Metrics.end() ? 0 : It->second.Value;
    const char *Unit = It == R.Metrics.end() ? "" : It->second.Unit.c_str();
    if (It == R.Metrics.end() || !std::isfinite(V)) {
      Correct = false;
      V = 0;
    }
    M += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   M.empty() ? "" : ", ", N.c_str(), V, Unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(R.Attempted, 1),
              (unsigned long long)R.Failed, M.c_str());
}

/// The output check must see a planted miscompile: one suite round with
/// PRE's availability meet broken has to fail operations, one without it
/// must not.
int selfTest(RunOptions O) {
  O.Workload = "suite";
  O.Seconds = 0; // exactly one round
  O.StateDir.clear();
  Result Clean, Faulty;
  runSuite(O, Clean);
  epre::fault::setPREDropAvailabilityMeet(true);
  runSuite(O, Faulty);
  epre::fault::setPREDropAvailabilityMeet(false);
  auto Rate = [](const Result &R) {
    return R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0;
  };
  std::printf("self-test: error_rate %.4f on the seed (%llu/%llu), %.4f with "
              "the PRE availability fault planted (%llu/%llu)\n",
              Rate(Clean), (unsigned long long)Clean.Failed,
              (unsigned long long)Clean.Attempted, Rate(Faulty),
              (unsigned long long)Faulty.Failed,
              (unsigned long long)Faulty.Attempted);
  bool Ok = Clean.Failed == 0 && Clean.Problems.empty() && Faulty.Failed > 0;
  std::printf("self-test: %s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() != "0";
    else if (A == "--root")
      O.Root = Next();
    else if (A == "--state-dir")
      O.StateDir = Next();
    else if (A == "--trace-dir")
      O.TraceDir = Next();
    else if (A == "--work-dir")
      O.WorkDir = Next();
    else if (A == "--self-test")
      SelfTest = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", A.c_str());
      return 2;
    }
  }

  std::string Why;
  if (!optimisedBuild(Why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", Why.c_str());
    return 3;
  }
  std::printf("# env {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"nproc\": %u, \"dispatch\": \"%s\", \"assertions\": "
              "\"off\"}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(),
              epre::interpDispatchMode());
  if (SelfTest)
    return selfTest(O);

  void (*Run)(const RunOptions &, Result &) = nullptr;
  if (O.Workload == "suite")
    Run = runSuite;
  else if (O.Workload == "bigfn")
    Run = runBigFn;
  else if (O.Workload == "serve")
    Run = runServe;
  else if (O.Workload == "exec")
    Run = runExec;
  if (!Run || !(O.Seconds >= 0)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (suite, bigfn, "
                         "serve, exec) or bad --seconds\n",
                 O.Workload.c_str());
    return 2;
  }
  std::printf("# run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              int(O.Trace));
  Result R;
  Run(O, R);
  checkAcrossRuns(O, R);
  std::printf("# inputs digest %016llx, counts digest %016llx\n",
              (unsigned long long)R.InputsDigest,
              (unsigned long long)R.CountsDigest);
  printResult(R, O.Trace);
  return 0;
}
