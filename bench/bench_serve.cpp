//===- bench/bench_serve.cpp - Compile-server throughput ------------------===//
///
/// Measures what the content-addressed ResultCache buys under replayed
/// traffic, driving CompileService in-process (every serving stage — parse,
/// verify, hash, cache, worker pool, response assembly — runs; only the
/// socket is absent, so the numbers isolate the serving engine itself):
///
///  - BM_ServeColdSingleShot: one routine per request, cache disabled
///    (byte budget 0 admits nothing), i.e. every request pays the full
///    Distribution pipeline. This is the per-process compile model the
///    daemon replaces.
///  - BM_ServeWarmReplay: the 100-request duplicate-heavy suite trace
///    (dup-ratio 0.9, the hot edit/compile-loop model) against a
///    pre-warmed cache — every request is answered from the memo table.
///
/// scripts/bench.sh publishes BENCH_serve.json only when warm replay
/// sustains >= 5x the cold single-shot compiles/sec (items_per_second),
/// the ISSUE 7 acceptance floor.
///
/// Both benchmarks run Workers=1 so the ratio measures the cache, not
/// thread-pool parallelism.
///
//===----------------------------------------------------------------------===//

#include "serve/Service.h"
#include "serve/Trace.h"
#include "suite/Suite.h"

#include <benchmark/benchmark.h>

using namespace epre;

namespace {

/// One compile document per trace line, batch size 1 (single-shot model).
std::vector<std::string> singleShotDocs(const std::vector<std::string> &Lines) {
  std::vector<std::string> Docs;
  Docs.reserve(Lines.size());
  for (const std::string &L : Lines)
    Docs.push_back("{\"v\":1,\"cmd\":\"compile\",\"requests\":[" + L + "]}");
  return Docs;
}

std::vector<std::string> coldDocs() {
  // Every suite routine once: 50 distinct bodies, no redundancy to exploit.
  TraceOptions TO;
  TO.Requests = 50;
  TO.DupRatio = 0.0;
  return singleShotDocs(generateSuiteTrace(TO));
}

std::vector<std::string> replayDocs() {
  // The duplicate-heavy trace: 100 requests, 90% repeats.
  TraceOptions TO;
  TO.Requests = 100;
  TO.DupRatio = 0.9;
  return singleShotDocs(generateSuiteTrace(TO));
}

void BM_ServeColdSingleShot(benchmark::State &State) {
  ServiceConfig Cfg;
  Cfg.CacheBytes = 0; // admit-then-evict: every request compiles
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  std::vector<std::string> Docs = coldDocs();
  int64_t Compiles = 0;
  for (auto _ : State) {
    for (const std::string &D : Docs) {
      std::string R = Svc.handle(D);
      benchmark::DoNotOptimize(R.data());
    }
    Compiles += int64_t(Docs.size());
  }
  State.SetItemsProcessed(Compiles);
}
BENCHMARK(BM_ServeColdSingleShot)->Unit(benchmark::kMillisecond);

void BM_ServeWarmReplay(benchmark::State &State) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  std::vector<std::string> Docs = replayDocs();
  for (const std::string &D : Docs) // warm the cache
    Svc.handle(D);
  int64_t Compiles = 0;
  for (auto _ : State) {
    for (const std::string &D : Docs) {
      std::string R = Svc.handle(D);
      benchmark::DoNotOptimize(R.data());
    }
    Compiles += int64_t(Docs.size());
  }
  State.SetItemsProcessed(Compiles);
  State.counters["cache_hits"] =
      benchmark::Counter(double(Svc.cache().hits()));
}
BENCHMARK(BM_ServeWarmReplay)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  // See bench_pass_timing.cpp: record this binary's own configuration since
  // the packaged libbenchmark misreports library_build_type.
#ifdef NDEBUG
  benchmark::AddCustomContext("epre_assertions", "disabled");
#else
  benchmark::AddCustomContext("epre_assertions", "enabled");
#endif
#ifdef EPRE_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("epre_build_type", EPRE_BENCH_BUILD_TYPE);
#else
  benchmark::AddCustomContext("epre_build_type", "unknown");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
