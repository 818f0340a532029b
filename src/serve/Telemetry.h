//===- serve/Telemetry.h - Request-level serving telemetry -------*- C++ -*-===//
///
/// \file
/// Per-request observability for the compile server (schema and span model
/// in docs/observability.md, "Serving telemetry"):
///
///  - **Span tracing.** Every request handled by CompileService carries a
///    trace ID and a hierarchical span tree — request > parse, admit,
///    compile, respond — built on the existing TimerTree. When span
///    collection is enabled (the daemon's -trace-out), the per-function
///    pass timers from the compile rounds are nested under the request's
///    "compile" span via TimerTree::mergeUnder, and every request's tree is
///    retained (up to a slice cap) so one coherent Chrome trace of the
///    whole daemon run can be exported through the existing toChromeTrace
///    machinery.
///  - **Latency histograms.** Log2-bucket ConcurrentHistograms record the
///    end-to-end latency of every compile request, each phase (admit /
///    cache lookup / compile / respond), and the hit- vs miss-conditioned
///    end-to-end distributions (a request counts as a hit when every
///    admitted function was answered from the ResultCache).
///  - **Counters.** serve.* atomics (request totals by kind, per-function
///    admissions, error and slow-request counts) exported into the same
///    StatsRegistry namespace the cache.* counters use.
///  - **Structured access log.** One JSONL record per request — trace ID,
///    peer, command, batch size, per-function cache outcomes, phase
///    latencies, error class — with threshold-based slow-request sampling
///    that inlines the offending request's span tree into the record.
///
/// Recording is lock-free on the hot path (atomics only); the access log
/// and the retained trace are the only mutex-guarded sinks, and both are
/// off by default.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SERVE_TELEMETRY_H
#define EPRE_SERVE_TELEMETRY_H

#include "instrument/Histogram.h"
#include "instrument/PassTimer.h"
#include "instrument/Statistic.h"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace epre {

class JSONWriter;
struct JSONValue;

struct TelemetryConfig {
  /// Retain every request's span tree (plus the nested per-function pass
  /// timers) for the Chrome trace export. Costs memory per request, so it
  /// is opt-in via the daemon's -trace-out.
  bool CollectSpans = false;
  /// Retention cap for CollectSpans: once the retained trace holds this
  /// many slices, further requests' spans are dropped (counted in
  /// serve.trace_slices_dropped) rather than growing without bound.
  size_t MaxTraceSlices = 1u << 20;
  /// JSONL access-log path; "" disables the log.
  std::string AccessLogPath;
  /// Requests slower than this (end to end, nanoseconds) are flagged slow
  /// and their access-log record carries the full span tree. 0 disables
  /// slow sampling.
  uint64_t SlowThresholdNs = 0;
};

/// Transport-provided request attribution (the daemon fills this per
/// connection; in-process callers can leave it default).
struct RequestInfo {
  std::string Peer; ///< e.g. "unix:conn3"; "" renders as "local"
  uint32_t ConnId = 0; ///< span lane, so concurrent connections get rows
};

/// One admitted function's cache outcome, for the access log.
struct FnOutcome {
  std::string Name;
  bool Cached = false;
};

/// Per-request working state the service threads through one handle()
/// call: the span tree, phase latencies, and the counts the histograms and
/// the access log need. Plain data — one per request, touched by one
/// thread.
struct RequestTrack {
  uint64_t TraceId = 0;
  std::string Cmd = "?"; ///< "compile", "ping", ..., "invalid"
  TimerTree Spans;
  bool CollectSpans = false; ///< also gates per-function pass timers
  uint64_t AdmitNs = 0, CacheNs = 0, CompileNs = 0, RespondNs = 0;
  unsigned Batch = 0;     ///< sub-requests in the frame
  unsigned Functions = 0; ///< admitted functions across the batch
  unsigned Hits = 0, Misses = 0;
  unsigned Errors = 0;                 ///< failed sub-requests
  std::string ErrorClass = "none";     ///< first failure's class
  std::vector<FnOutcome> Outcomes;     ///< per admitted function
};

/// The daemon-wide telemetry sink. One instance per CompileService; all
/// methods are thread-safe.
class ServeTelemetry {
public:
  explicit ServeTelemetry(const TelemetryConfig &C);

  bool collectSpans() const { return Cfg.CollectSpans; }

  /// Marks a request in flight and assigns its trace ID.
  uint64_t beginRequest();

  /// Completes a request: histograms, counters, span retention, and the
  /// access-log record. \p StartNs/\p DurNs are TimerTree::nowNs based.
  void endRequest(const RequestTrack &T, const RequestInfo &Info,
                  uint64_t StartNs, uint64_t DurNs);

  int64_t inflight() const {
    return Inflight.load(std::memory_order_relaxed);
  }
  uint64_t uptimeNs() const { return TimerTree::nowNs() - EpochNs; }

  /// serve.* counters into \p R (requests, compile_requests,
  /// control_requests, protocol_errors, request_errors, hit_requests,
  /// miss_requests, error_requests, functions, slow_requests,
  /// access_log_records, trace_slices_dropped).
  void exportStats(StatsRegistry &R) const;

  /// {"request_ns":{...},"request_hit_ns":{...},"request_miss_ns":{...},
  ///  "admit_ns":{...},"cache_ns":{...},"compile_ns":{...},
  ///  "respond_ns":{...}} — each a Histogram JSON document.
  void writeHistograms(JSONWriter &W) const;

  /// The retained request spans as one Chrome trace document (empty trace
  /// when CollectSpans is off).
  std::string chromeTrace() const;

  /// "0123456789abcdef" — the access-log / response rendering of an ID.
  static std::string traceIdHex(uint64_t Id);

private:
  void writeAccessRecord(const RequestTrack &T, const RequestInfo &Info,
                         uint64_t StartNs, uint64_t DurNs, bool Slow);

  TelemetryConfig Cfg;
  uint64_t EpochNs;     ///< TimerTree::nowNs() at construction
  uint64_t WallEpochMs; ///< wall-clock ms at construction (access-log ts)
  uint64_t TraceSeed;   ///< per-process salt for trace IDs
  std::atomic<uint64_t> Seq{0};
  std::atomic<int64_t> Inflight{0};

  std::atomic<uint64_t> Requests{0}, CompileRequests{0}, ControlRequests{0},
      ProtocolErrors{0}, RequestErrors{0}, HitRequests{0}, MissRequests{0},
      ErrorRequests{0}, Functions{0}, SlowRequests{0}, AccessLogRecords{0},
      TraceSlicesDropped{0};

  ConcurrentHistogram RequestNs, HitNs, MissNs, AdmitNs, CacheNs, CompileNs,
      RespondNs;

  mutable std::mutex TraceMu;
  TimerTree Trace; ///< retained request spans (CollectSpans)

  std::mutex LogMu;
  std::ofstream AccessLog;
  bool LogOpen = false;
};

/// Renders a `metrics` response document (Service.h) as Prometheus text
/// exposition: counters/gauges as epre_<name> (dots become underscores),
/// histograms as cumulative _bucket{le=...} series plus _sum/_count. Used
/// by `epre-client -metrics`.
std::string metricsToPrometheus(const JSONValue &Metrics);

} // namespace epre

#endif // EPRE_SERVE_TELEMETRY_H
