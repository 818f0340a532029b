//===- perfbench/src/Common.h - Shared benchmark plumbing --------*- C++ -*-===//
///
/// \file
/// What every workload shares: the run options, the result a run prints,
/// latency summaries, the output check against an unoptimized reference
/// execution, and the exact-repeat log of the deterministic counts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Tracer.h"

#include "interp/Interpreter.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace epre {
struct PipelineStats;
}

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// The checkout root (BENCH_dynamic_profile.json lives there).
  std::string Root = ".";
  /// Where inputs digests and count fingerprints of earlier runs of this
  /// binary are kept for the cross-run repeat check ("" = no check).
  std::string StateDir;
  /// Directory the traced run writes its spans to ("" = not written).
  std::string TraceDir;
  /// Working directory inside the checkout (the serve socket lives there).
  std::string WorkDir = ".";
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything one run reports.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Failures of the run's own checks (count drift, reference mismatch),
  /// independent of per-operation failures.
  std::vector<std::string> Problems;
  std::map<std::string, Metric> Metrics;
  /// Human-readable lines printed before the result object.
  std::vector<std::string> Notes;
  /// Digest of the generated inputs.
  uint64_t InputsDigest = 0;
  /// Digest of every deterministic count the run produced.
  uint64_t CountsDigest = 0;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void fail(std::string Why);
};

/// Median and tail of a set of latencies. The tail is the highest
/// percentile with at least ten samples beyond it.
struct LatencySummary {
  double P50Ms = 0;
  double TailMs = 0;
  double TailPct = 0;
  size_t Samples = 0;
};
LatencySummary summarize(std::vector<uint64_t> Ns);
double medianOf(std::vector<double> V);

/// The best (minimum) time of each operation class: one class per distinct
/// input and configuration (for serve, per routine and hit or miss). Each
/// class repeats the same work many times in a run, and noise from other
/// tenants of the machine only ever slows a repeat down, so a class's best
/// time is the steadiest estimate of its cost. The latency metrics
/// summarize these per-class times; throughput divides the classes' work
/// by their summed best times.
class BestTimes {
public:
  explicit BestTimes(size_t Classes) : Ns(Classes, 0) {}
  void add(size_t Class, uint64_t T) {
    if (Ns[Class] == 0 || T < Ns[Class])
      Ns[Class] = T;
  }
  /// Per-class best times, 0 for classes never run.
  const std::vector<uint64_t> &best() const { return Ns; }
  /// Work units per second: the run classes' work over their best times.
  double rate(const std::vector<uint64_t> &Work) const;

private:
  std::vector<uint64_t> Ns;
};

/// The non-zero entries of \p V.
std::vector<uint64_t> nonZero(const std::vector<uint64_t> &V);

/// Inputs for one execution: the routine's memory image after its argument
/// builder filled it, and the arguments themselves.
struct ExecInput {
  std::vector<uint8_t> Image;
  std::vector<epre::RtValue> Args;
};

/// The observable outcome of one execution.
struct Outcome {
  epre::TrapKind Kind = epre::TrapKind::None;
  bool HasReturn = false;
  epre::RtValue Ret;
  uint64_t MemHash = 0;
  uint64_t DynOps = 0;
  std::vector<uint8_t> Mem;
};

Outcome outcomeOf(const epre::ExecResult &E, epre::MemoryImage &&Mem);

/// "" when \p Got matches the reference \p Ref: same trap kind, same
/// return value and memory image, compared within a relative tolerance on
/// F64 values when \p FPLoose (the FP-reassociating levels). Otherwise a
/// one-line description of the first difference.
std::string compareOutcome(const Outcome &Ref, const Outcome &Got,
                           bool FPLoose);

/// Runs \p F on a copy of \p In; the tracer spans the call when on.
epre::ExecResult execute(const epre::Function &F, const ExecInput &In,
                         epre::MemoryImage &Mem, Tracer &T,
                         epre::ProfileCollector *Prof = nullptr);

/// Folds a run's deterministic counts (dynamic operations, instructions,
/// pass counters) into one digest for the cross-run repeat check.
class CountLog {
public:
  void add(uint64_t V) { H = mix(H, V); }
  uint64_t digest() const { return H; }

private:
  static uint64_t mix(uint64_t H, uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    return H;
  }
  uint64_t H = 0xcbf29ce484222325ull;
};

/// Checks the run's counts digest against the one an earlier run of this
/// binary recorded for the same workload and seed (writing it when none
/// exists); a mismatch is a run problem.
void checkAcrossRuns(const RunOptions &O, Result &R);

/// Writes the traced run's spans as <TraceDir>/<workload>-<seed>.trace.json.
void writeTrace(const Tracer &T, const RunOptions &O, Result &R);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// splitmix64: the seeded generator every workload draws from.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[size_t(below(I))]);
  }
};

/// Number of times each workload repeats its set-up; setup_s is the median.
inline constexpr unsigned SetupRepeats = 5;

/// Per-layer metric names every traced run prints (0 where a workload does
/// not reach the layer), in BENCHMARK.json order.
const std::vector<std::string> &perLayerMetricNames();

/// Fills the per-layer metrics derivable from spans alone: frontend, ir,
/// pipeline.optimize, pass.* and interp.*. \p Ops is the number of
/// operations the traced rounds ran.
void reportLayers(const Tracer &T, uint64_t Ops, Result &R);

/// The PipelineStats counters the traced run reports (pre.universe, ...,
/// gvn.redundancies_found), in a fixed order; sum them element-wise over a
/// round and report the totals.
std::vector<uint64_t> passCounters(const epre::PipelineStats &S);
void reportPassCounters(const std::vector<uint64_t> &Totals, Result &R);

/// Runs the workloads (defined in Compile.cpp, Serve.cpp, Exec.cpp).
void runSuite(const RunOptions &O, Result &R);
void runBigFn(const RunOptions &O, Result &R);
void runServe(const RunOptions &O, Result &R);
void runExec(const RunOptions &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
