//===- serve/Service.h - The compile server's request engine -----*- C++ -*-===//
///
/// \file
/// CompileService is the transport-independent core of `epre-served`: one
/// JSON request document in, one JSON response document out. The socket
/// daemon (Server.h) feeds it frames; the unit tests and the throughput
/// benchmark call it directly, so every byte of the serving logic is
/// exercised without a socket.
///
/// A compile batch flows through three stages:
///
///  1. Admit: parse each source (ILOC or Mini-FORTRAN), verify every
///     function, print it back to canonical ILOC text, and hash that text.
///     The hash plus the options fingerprint is the cache key; hits are
///     answered from the ResultCache without touching the pipeline.
///  2. Compile: the missed functions of the whole batch — deduplicated by
///     key, so a duplicate-heavy batch compiles each body once — are moved
///     into a scratch module and sharded across the worker pool with
///     runPipelineParallel. Functions whose names collide across requests
///     are split into successive rounds so the merged remark stream
///     partitions unambiguously by function name.
///  3. Respond: per-request responses are assembled in request order from
///     the cached/compiled per-function payloads (optimized ILOC, remark
///     JSON, counter JSON), so output is deterministic regardless of worker
///     scheduling, and a cache hit is bit-identical to a fresh compile.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SERVE_SERVICE_H
#define EPRE_SERVE_SERVICE_H

#include "serve/Protocol.h"
#include "serve/ResultCache.h"
#include "serve/Telemetry.h"

#include <atomic>
#include <string>

namespace epre {

struct ServiceConfig {
  /// ResultCache byte budget (LRU-evicted; see ResultCache.h).
  size_t CacheBytes = 64u << 20;
  /// Worker threads per compile batch (runPipelineParallel's NumThreads);
  /// 0 = one per hardware thread.
  unsigned Workers = 0;
  /// Cache shard count; 0 = the ResultCache default.
  unsigned CacheShards = 0;
  /// Request-level telemetry (spans, histograms, access log; Telemetry.h).
  TelemetryConfig Telemetry;
};

class CompileService {
public:
  explicit CompileService(const ServiceConfig &C)
      : Cfg(C), Cache(C.CacheBytes, C.CacheShards), Tel(C.Telemetry) {}

  /// Full dispatch: parses \p RequestJSON, runs the command, returns the
  /// response document. Never throws; protocol misuse yields an
  /// {"ok":false,...} response. A shutdown command flips
  /// shutdownRequested() after building its acknowledgement. \p Info
  /// attributes the request (peer, connection) in spans and the access
  /// log; every request is recorded in the telemetry sink before the
  /// response is returned, so a metrics scrape issued after a response
  /// already sees that request counted.
  std::string handle(const std::string &RequestJSON,
                     const RequestInfo &Info = {});

  ResultCache &cache() { return Cache; }
  ServeTelemetry &telemetry() { return Tel; }

  /// {"v":1,"uptime_ns":...,"inflight":...,"counters":{...},
  ///  "histograms":{...}} — the live `metrics` snapshot: cache.* and
  /// serve.* counters in one flat object plus the latency histograms
  /// (Telemetry.h). Also the -stats-out document.
  std::string metricsJSON() const;

  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_acquire);
  }

private:
  std::string dispatch(const ServeRequest &R, RequestTrack &T);
  std::string compile(const ServeRequest &R, RequestTrack &T);
  /// uptime_ns / inflight / counters / histograms keys into an open object.
  void writeMetricsBody(JSONWriter &W) const;

  ServiceConfig Cfg;
  ResultCache Cache;
  ServeTelemetry Tel;
  std::atomic<bool> Shutdown{false};
};

} // namespace epre

#endif // EPRE_SERVE_SERVICE_H
