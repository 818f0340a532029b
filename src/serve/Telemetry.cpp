//===- serve/Telemetry.cpp ------------------------------------------------===//

#include "serve/Telemetry.h"

#include "instrument/JSONReader.h"
#include "instrument/JSONWriter.h"
#include "support/StringUtil.h"

#include <chrono>
#include <cinttypes>

using namespace epre;

ServeTelemetry::ServeTelemetry(const TelemetryConfig &C) : Cfg(C) {
  EpochNs = TimerTree::nowNs();
  auto Wall = std::chrono::system_clock::now().time_since_epoch();
  WallEpochMs = uint64_t(
      std::chrono::duration_cast<std::chrono::milliseconds>(Wall).count());
  // Trace IDs must differ across daemon runs (access logs from restarts are
  // routinely concatenated), so salt the sequence with the wall clock.
  TraceSeed = hashCombine(WallEpochMs, EpochNs ^ 0x5e5e5e5e5e5e5e5eULL);
  if (!Cfg.AccessLogPath.empty()) {
    std::lock_guard<std::mutex> Lock(LogMu);
    AccessLog.open(Cfg.AccessLogPath, std::ios::out | std::ios::app);
    LogOpen = AccessLog.is_open();
  }
}

uint64_t ServeTelemetry::beginRequest() {
  Inflight.fetch_add(1, std::memory_order_relaxed);
  return hashCombine(TraceSeed,
                     Seq.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::string ServeTelemetry::traceIdHex(uint64_t Id) {
  return strprintf("%016" PRIx64, Id);
}

void ServeTelemetry::endRequest(const RequestTrack &T, const RequestInfo &Info,
                                uint64_t StartNs, uint64_t DurNs) {
  Inflight.fetch_sub(1, std::memory_order_relaxed);
  Requests.fetch_add(1, std::memory_order_relaxed);

  if (T.Cmd == "compile") {
    CompileRequests.fetch_add(1, std::memory_order_relaxed);
    Functions.fetch_add(T.Functions, std::memory_order_relaxed);
    RequestNs.record(DurNs);
    AdmitNs.record(T.AdmitNs);
    CacheNs.record(T.CacheNs);
    CompileNs.record(T.CompileNs);
    RespondNs.record(T.RespondNs);
    if (T.Errors > 0) {
      ErrorRequests.fetch_add(1, std::memory_order_relaxed);
      RequestErrors.fetch_add(T.Errors, std::memory_order_relaxed);
    } else if (T.Misses == 0 && T.Hits > 0) {
      HitRequests.fetch_add(1, std::memory_order_relaxed);
      HitNs.record(DurNs);
    } else if (T.Misses > 0) {
      MissRequests.fetch_add(1, std::memory_order_relaxed);
      MissNs.record(DurNs);
    }
  } else if (T.Cmd == "invalid") {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
  } else {
    ControlRequests.fetch_add(1, std::memory_order_relaxed);
  }

  bool Slow = Cfg.SlowThresholdNs && DurNs >= Cfg.SlowThresholdNs;
  if (Slow)
    SlowRequests.fetch_add(1, std::memory_order_relaxed);

  if (collectSpans() && !T.Spans.empty()) {
    std::lock_guard<std::mutex> Lock(TraceMu);
    if (Trace.slices().size() + T.Spans.slices().size() <= Cfg.MaxTraceSlices)
      Trace.merge(T.Spans);
    else
      TraceSlicesDropped.fetch_add(T.Spans.slices().size(),
                                   std::memory_order_relaxed);
  }

  if (LogOpen)
    writeAccessRecord(T, Info, StartNs, DurNs, Slow);
}

void ServeTelemetry::writeAccessRecord(const RequestTrack &T,
                                       const RequestInfo &Info,
                                       uint64_t StartNs, uint64_t DurNs,
                                       bool Slow) {
  JSONWriter W;
  W.beginObject();
  // StartNs is on the process-wide steady epoch; anchor it to the wall
  // clock sampled at construction so records are comparable across runs.
  uint64_t TsMs = WallEpochMs + (StartNs >= EpochNs
                                     ? (StartNs - EpochNs) / 1000000
                                     : 0);
  W.key("ts_ms").value(TsMs);
  W.key("trace_id").value(traceIdHex(T.TraceId));
  W.key("peer").value(Info.Peer.empty() ? "local" : Info.Peer.c_str());
  W.key("conn").value(uint64_t(Info.ConnId));
  W.key("cmd").value(T.Cmd);
  W.key("batch").value(uint64_t(T.Batch));
  W.key("hits").value(uint64_t(T.Hits));
  W.key("misses").value(uint64_t(T.Misses));
  W.key("errors").value(uint64_t(T.Errors));
  W.key("error_class").value(T.ErrorClass);
  W.key("latency_ns").value(DurNs);
  W.key("admit_ns").value(T.AdmitNs);
  W.key("cache_ns").value(T.CacheNs);
  W.key("compile_ns").value(T.CompileNs);
  W.key("respond_ns").value(T.RespondNs);
  W.key("functions").beginArray();
  for (const FnOutcome &F : T.Outcomes) {
    W.beginObject();
    W.key("name").value(F.Name);
    W.key("cached").value(F.Cached);
    W.endObject();
  }
  W.endArray();
  W.key("slow").value(Slow);
  if (Slow && !T.Spans.empty()) {
    // Inline the span tree, timestamps made relative to the request start
    // so a record is self-contained.
    W.key("spans").beginArray();
    for (const TimerTree::Slice &S : T.Spans.slices()) {
      W.beginObject();
      W.key("name").value(S.Name);
      W.key("parent").value(int64_t(S.Parent));
      W.key("start_ns").value(S.StartNs >= StartNs ? S.StartNs - StartNs : 0);
      W.key("dur_ns").value(S.DurNs);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();

  std::lock_guard<std::mutex> Lock(LogMu);
  if (!AccessLog.good())
    return;
  AccessLog << W.str() << '\n';
  AccessLog.flush();
  AccessLogRecords.fetch_add(1, std::memory_order_relaxed);
}

void ServeTelemetry::exportStats(StatsRegistry &R) const {
  auto Get = [](const std::atomic<uint64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  R.counter("serve", "requests") += Get(Requests);
  R.counter("serve", "compile_requests") += Get(CompileRequests);
  R.counter("serve", "control_requests") += Get(ControlRequests);
  R.counter("serve", "protocol_errors") += Get(ProtocolErrors);
  R.counter("serve", "request_errors") += Get(RequestErrors);
  R.counter("serve", "hit_requests") += Get(HitRequests);
  R.counter("serve", "miss_requests") += Get(MissRequests);
  R.counter("serve", "error_requests") += Get(ErrorRequests);
  R.counter("serve", "functions") += Get(Functions);
  R.counter("serve", "slow_requests") += Get(SlowRequests);
  R.counter("serve", "access_log_records") += Get(AccessLogRecords);
  R.counter("serve", "trace_slices_dropped") += Get(TraceSlicesDropped);
}

void ServeTelemetry::writeHistograms(JSONWriter &W) const {
  auto Emit = [&](const char *Name, const ConcurrentHistogram &H) {
    W.key(Name);
    H.snapshot().writeJSON(W);
  };
  W.beginObject();
  Emit("request_ns", RequestNs);
  Emit("request_hit_ns", HitNs);
  Emit("request_miss_ns", MissNs);
  Emit("admit_ns", AdmitNs);
  Emit("cache_ns", CacheNs);
  Emit("compile_ns", CompileNs);
  Emit("respond_ns", RespondNs);
  W.endObject();
}

std::string ServeTelemetry::chromeTrace() const {
  std::lock_guard<std::mutex> Lock(TraceMu);
  return Trace.toChromeTrace();
}

namespace {

/// "serve.compile_requests" -> "epre_serve_compile_requests".
std::string promName(std::string_view Name) {
  std::string Out = "epre_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9');
    Out += Ok ? C : '_';
  }
  return Out;
}

void promHistogram(std::string &Out, const std::string &Name,
                   const JSONValue &H) {
  Histogram Parsed;
  if (!Histogram::fromJSONValue(H, Parsed, nullptr))
    return;
  std::string N = promName(Name);
  Out += "# TYPE " + N + " histogram\n";
  uint64_t Cum = 0;
  for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
    if (!Parsed.bucketCount(B))
      continue;
    Cum += Parsed.bucketCount(B);
    Out += N + "_bucket{le=\"" +
           std::to_string(Histogram::bucketUpperBound(B)) + "\"} " +
           std::to_string(Cum) + "\n";
  }
  Out += N + "_bucket{le=\"+Inf\"} " + std::to_string(Parsed.count()) + "\n";
  Out += N + "_sum " + std::to_string(Parsed.sum()) + "\n";
  Out += N + "_count " + std::to_string(Parsed.count()) + "\n";
}

} // namespace

std::string epre::metricsToPrometheus(const JSONValue &Metrics) {
  std::string Out;
  if (const JSONValue *Up = Metrics.get("uptime_ns"); Up && Up->IsUInt) {
    Out += "# TYPE epre_uptime_seconds gauge\n";
    Out += strprintf("epre_uptime_seconds %.3f\n", double(Up->UInt) / 1e9);
  }
  if (const JSONValue *In = Metrics.get("inflight"); In && In->isNumber()) {
    Out += "# TYPE epre_inflight_requests gauge\n";
    Out += strprintf("epre_inflight_requests %lld\n", (long long)In->Num);
  }
  if (const JSONValue *Cs = Metrics.get("counters"); Cs && Cs->isObject()) {
    for (const auto &[Name, V] : Cs->Obj) {
      if (!V.IsUInt)
        continue;
      std::string N = promName(Name);
      Out += "# TYPE " + N + " counter\n";
      Out += N + " " + std::to_string(V.UInt) + "\n";
    }
  }
  if (const JSONValue *Hs = Metrics.get("histograms"); Hs && Hs->isObject())
    for (const auto &[Name, V] : Hs->Obj)
      promHistogram(Out, Name, V);
  return Out;
}
