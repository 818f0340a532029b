//===- examples/epre_served.cpp - The compile-as-a-service daemon ---------===//
///
/// Persistent compile server: accepts batched compile requests (ILOC or
/// Mini-FORTRAN in, optimized ILOC + remark/stat JSON out) as
/// length-prefixed JSON frames over a Unix-domain socket, shards each
/// batch's functions across a worker pool, and memoizes per-function
/// results in a content-addressed LRU cache so byte-identical replay
/// traffic never re-runs the pipeline. Protocol and deployment knobs are
/// documented in docs/serving.md.
///
///   epre-served -socket PATH [-workers N] [-cache-bytes N]
///               [-cache-shards N] [-stats-out FILE] [-stats-interval SEC]
///               [-access-log FILE] [-trace-out FILE] [-slow-ms N]
///
///   -socket PATH        Unix-domain socket to listen on (required)
///   -workers N          compile workers per batch (default 0 = one per
///                       hardware thread)
///   -cache-bytes N      ResultCache byte budget (default 64 MiB; 0
///                       disables retention — every request compiles)
///   -cache-shards N     cache shard count (default 8)
///   -stats-out FILE     write the metrics JSON document here every
///                       -stats-interval seconds and on shutdown (atomic
///                       temp-file + rename writes)
///   -stats-interval SEC periodic -stats-out flush period (default 5;
///                       0 = only at exit)
///   -access-log FILE    append one JSONL record per request (trace id,
///                       peer, batch, cache outcomes, phase latencies)
///   -trace-out FILE     write one Chrome trace of every request span —
///                       with per-function pass timers nested inside —
///                       on shutdown (enables span collection)
///   -slow-ms N          flag requests slower than N ms as slow and
///                       inline their span tree into the access log
///                       (default 0 = off)
///
/// Live metrics (counters, latency histograms, inflight gauge) are served
/// over the socket by the `metrics` verb; `epre-client -metrics` renders
/// them as Prometheus text.
///
/// Shutdown: a client "shutdown" command, SIGINT, or SIGTERM all drain
/// connections, unlink the socket, write -stats-out/-trace-out, and
/// exit 0.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/StringUtil.h"

#include <csignal>
#include <cstdio>
#include <string>
#include <sys/socket.h>

using namespace epre;

namespace {

/// The daemon instance the signal handler pokes. Only shutdown(2) on the
/// listen fd happens in the handler — async-signal-safe, and it makes the
/// blocked accept() return so run() unwinds on the main thread.
volatile sig_atomic_t GListenFd = -1;

void onSignal(int) {
  if (GListenFd >= 0)
    ::shutdown(GListenFd, SHUT_RDWR);
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s -socket PATH [-workers N] [-cache-bytes N]\n"
               "       [-cache-shards N] [-stats-out FILE]"
               " [-stats-interval SEC]\n"
               "       [-access-log FILE] [-trace-out FILE] [-slow-ms N]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  ServerConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    uint64_t N = 0;
    if (A.rfind("-socket=", 0) == 0) {
      Cfg.SocketPath = A.substr(8);
    } else if (A == "-socket" && I + 1 < argc) {
      Cfg.SocketPath = argv[++I];
    } else if (A.rfind("-workers=", 0) == 0 && parseUnsigned(A.substr(9), N)) {
      Cfg.Service.Workers = unsigned(N);
    } else if (A == "-workers" && I + 1 < argc &&
               parseUnsigned(argv[I + 1], N)) {
      Cfg.Service.Workers = unsigned(N);
      ++I;
    } else if (A.rfind("-cache-bytes=", 0) == 0 &&
               parseUnsigned(A.substr(13), N)) {
      Cfg.Service.CacheBytes = size_t(N);
    } else if (A == "-cache-bytes" && I + 1 < argc &&
               parseUnsigned(argv[I + 1], N)) {
      Cfg.Service.CacheBytes = size_t(N);
      ++I;
    } else if (A.rfind("-cache-shards=", 0) == 0 &&
               parseUnsigned(A.substr(14), N)) {
      Cfg.Service.CacheShards = unsigned(N);
    } else if (A.rfind("-stats-out=", 0) == 0) {
      Cfg.StatsOutPath = A.substr(11);
    } else if (A == "-stats-out" && I + 1 < argc) {
      Cfg.StatsOutPath = argv[++I];
    } else if (A.rfind("-stats-interval=", 0) == 0 &&
               parseUnsigned(A.substr(16), N)) {
      Cfg.StatsFlushSeconds = unsigned(N);
    } else if (A == "-stats-interval" && I + 1 < argc &&
               parseUnsigned(argv[I + 1], N)) {
      Cfg.StatsFlushSeconds = unsigned(N);
      ++I;
    } else if (A.rfind("-access-log=", 0) == 0) {
      Cfg.Service.Telemetry.AccessLogPath = A.substr(12);
    } else if (A == "-access-log" && I + 1 < argc) {
      Cfg.Service.Telemetry.AccessLogPath = argv[++I];
    } else if (A.rfind("-trace-out=", 0) == 0) {
      Cfg.TraceOutPath = A.substr(11);
    } else if (A == "-trace-out" && I + 1 < argc) {
      Cfg.TraceOutPath = argv[++I];
    } else if (A.rfind("-slow-ms=", 0) == 0 && parseUnsigned(A.substr(9), N)) {
      Cfg.Service.Telemetry.SlowThresholdNs = N * 1000000ull;
    } else if (A == "-slow-ms" && I + 1 < argc &&
               parseUnsigned(argv[I + 1], N)) {
      Cfg.Service.Telemetry.SlowThresholdNs = N * 1000000ull;
      ++I;
    } else {
      return usage(argv[0]);
    }
  }
  if (Cfg.SocketPath.empty())
    return usage(argv[0]);

  // A client vanishing mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  ServeDaemon Daemon(Cfg);
  std::string Err;
  if (!Daemon.start(&Err)) {
    std::fprintf(stderr, "epre-served: %s\n", Err.c_str());
    return 1;
  }
  GListenFd = Daemon.listenFd();
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::fprintf(stderr,
               "epre-served: listening on %s (workers=%u, cache=%zu bytes)\n",
               Cfg.SocketPath.c_str(), Cfg.Service.Workers,
               Cfg.Service.CacheBytes);
  bool Clean = Daemon.run();
  std::fprintf(stderr, "epre-served: shut down (%llu hits, %llu misses)\n",
               (unsigned long long)Daemon.service().cache().hits(),
               (unsigned long long)Daemon.service().cache().misses());
  return Clean ? 0 : 1;
}
