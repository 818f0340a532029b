//===- tests/telemetry_test.cpp - Serving-telemetry tests -----------------===//
///
/// Covers the request-telemetry subsystem bottom-up: the log2-bucket
/// Histogram (boundaries, exact-rank percentiles against a sorted
/// reference, merge algebra, JSON round-trip, concurrent recording), the
/// structured access log's JSONL schema, the `metrics` verb (counter
/// consistency, monotonicity across scrapes), Chrome-trace span nesting
/// (request spans enclosing per-function pass-timer slices), and the
/// replay acceptance shape: one histogram sample per batch-1 request with
/// cache-hit latencies strictly below cache-miss latencies at p50.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Service.h"
#include "serve/Telemetry.h"
#include "serve/Trace.h"

#include "instrument/Histogram.h"
#include "instrument/JSONReader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace epre;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

std::string jsonEscape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string compileDoc(const std::vector<std::string> &Sources) {
  std::string Doc = "{\"v\":1,\"cmd\":\"compile\",\"requests\":[";
  for (size_t I = 0; I < Sources.size(); ++I) {
    if (I)
      Doc += ",";
    Doc += "{\"id\":\"r" + std::to_string(I) +
           "\",\"lang\":\"iloc\",\"source\":\"" + jsonEscape(Sources[I]) +
           "\"}";
  }
  Doc += "]}";
  return Doc;
}

JSONValue parsed(const std::string &Doc) {
  JSONValue V;
  std::string Err;
  EXPECT_TRUE(parseJSON(Doc, V, &Err)) << Err << "\nin: " << Doc;
  return V;
}

const char *SourceA = "func @a() -> i64 {\n"
                      "^e:\n"
                      "  %a:i64 = loadi 2\n"
                      "  %b:i64 = loadi 3\n"
                      "  %c:i64 = add %a, %b\n"
                      "  %d:i64 = add %a, %b\n"
                      "  %p:i64 = mul %c, %d\n"
                      "  ret %p\n"
                      "}\n";

const char *SourceB = "func @b(%x: i64) -> i64 {\n"
                      "^e:\n"
                      "  %t:i64 = mul %x, %x\n"
                      "  %u:i64 = mul %x, %x\n"
                      "  %v:i64 = add %t, %u\n"
                      "  ret %v\n"
                      "}\n";

/// Histogram parsed out of a metrics document, by name.
Histogram histogramFrom(const JSONValue &Metrics, const std::string &Name) {
  const JSONValue *Hs = Metrics.get("histograms");
  EXPECT_NE(Hs, nullptr);
  Histogram H;
  if (Hs)
    if (const JSONValue *V = Hs->get(Name)) {
      std::string Err;
      EXPECT_TRUE(Histogram::fromJSONValue(*V, H, &Err)) << Name << ": "
                                                         << Err;
    }
  return H;
}

uint64_t counterFrom(const JSONValue &Metrics, std::string_view Name) {
  const JSONValue *Cs = Metrics.get("counters");
  return Cs ? Cs->getU64(Name) : 0;
}

JSONValue scrape(CompileService &Svc) {
  return parsed(Svc.handle("{\"v\":1,\"cmd\":\"metrics\"}"));
}

//===----------------------------------------------------------------------===//
// Histogram: boundaries and recording
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(~uint64_t(0)), 64u);

  EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(64), ~uint64_t(0));
  for (unsigned B = 1; B < Histogram::NumBuckets; ++B) {
    uint64_t Lo = Histogram::bucketLowerBound(B);
    uint64_t Hi = Histogram::bucketUpperBound(B);
    EXPECT_EQ(Lo, uint64_t(1) << (B - 1)) << B;
    EXPECT_LE(Lo, Hi) << B; // bucket 1 is the singleton [1, 1]
    // The bounds land back in their own bucket: boundaries partition the
    // u64 range with no gaps or overlaps.
    EXPECT_EQ(Histogram::bucketIndex(Lo), B);
    EXPECT_EQ(Histogram::bucketIndex(Hi), B);
    EXPECT_EQ(Histogram::bucketUpperBound(B - 1) + 1, Lo) << B;
  }
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  Histogram H;
  for (uint64_t V : {5u, 17u, 3u, 1000u, 0u})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 5u + 17 + 3 + 1000 + 0);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucketCount(Histogram::bucketIndex(0)), 1u);
  EXPECT_EQ(H.bucketCount(Histogram::bucketIndex(1000)), 1u);
}

TEST(Histogram, EmptyAndOneSample) {
  Histogram Empty;
  EXPECT_EQ(Empty.count(), 0u);
  EXPECT_EQ(Empty.min(), 0u);
  EXPECT_EQ(Empty.percentile(0.5), 0u);
  uint64_t Lo = 1, Hi = 1;
  Empty.percentileBounds(0.5, Lo, Hi);
  EXPECT_EQ(Lo, 0u);
  EXPECT_EQ(Hi, 0u);

  // One sample: every percentile is exactly that sample (the min/max clamp
  // collapses the bucket to the point).
  Histogram One;
  One.record(12345);
  for (double Q : {0.01, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(One.percentile(Q), 12345u) << Q;
}

TEST(Histogram, PercentileAgainstSortedReference) {
  // Deterministic pseudo-random values spanning many buckets.
  Histogram H;
  std::vector<uint64_t> Values;
  uint64_t X = 88172645463325252ull;
  for (int I = 0; I < 1000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Values.push_back(X % 1000000);
    H.record(Values.back());
  }
  std::sort(Values.begin(), Values.end());
  for (double Q : {0.01, 0.10, 0.50, 0.90, 0.99, 1.0}) {
    size_t Rank = size_t(std::max(1.0, std::ceil(Q * double(Values.size()))));
    uint64_t Ref = Values[Rank - 1];
    uint64_t P = H.percentile(Q);
    // The reported value brackets the true rank sample from above and
    // never exceeds the observed range.
    EXPECT_GE(P, Ref) << Q;
    EXPECT_LE(P, H.max()) << Q;
    // Exact-rank guarantee: at least ceil(Q*N) samples are <= the
    // reported value.
    size_t AtMost = size_t(std::upper_bound(Values.begin(), Values.end(), P) -
                           Values.begin());
    EXPECT_GE(AtMost, Rank) << Q;
  }
}

TEST(Histogram, MergeIsCommutativeAndAssociative) {
  auto Mk = [](uint64_t Seed) {
    Histogram H;
    for (uint64_t I = 0; I < 100; ++I)
      H.record((Seed * 1000003 + I * 7919) % 100000);
    return H;
  };
  Histogram A = Mk(1), B = Mk(2), C = Mk(3);

  Histogram AB = A, BA = B;
  AB.merge(B);
  BA.merge(A);
  EXPECT_TRUE(AB == BA);

  Histogram L = A; // (A + B) + C
  L.merge(B);
  L.merge(C);
  Histogram BC = B; // A + (B + C)
  BC.merge(C);
  Histogram R = A;
  R.merge(BC);
  EXPECT_TRUE(L == R);
  EXPECT_EQ(L.count(), 300u);
  EXPECT_EQ(L.sum(), A.sum() + B.sum() + C.sum());
}

TEST(Histogram, JSONRoundTrip) {
  Histogram H;
  for (uint64_t V : {0u, 1u, 5u, 1000u, 123456u})
    H.record(V);
  JSONValue Doc = parsed(H.toJSON());
  // Derived percentiles are embedded for human readers.
  EXPECT_EQ(Doc.getU64("count"), 5u);
  EXPECT_TRUE(Doc.get("p50") && Doc.get("p99"));

  Histogram Back;
  std::string Err;
  ASSERT_TRUE(Histogram::fromJSONValue(Doc, Back, &Err)) << Err;
  EXPECT_TRUE(H == Back);
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_EQ(H.percentile(Q), Back.percentile(Q)) << Q;

  Histogram Empty, EmptyBack;
  ASSERT_TRUE(Histogram::fromJSONValue(parsed(Empty.toJSON()), EmptyBack,
                                       &Err))
      << Err;
  EXPECT_TRUE(Empty == EmptyBack);

  // Non-boundary bucket bounds and inconsistent totals are rejected.
  Histogram Bad;
  EXPECT_FALSE(Histogram::fromJSONValue(
      parsed("{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,"
             "\"buckets\":[[6,1]]}"),
      Bad, &Err));
  EXPECT_FALSE(Histogram::fromJSONValue(
      parsed("{\"count\":2,\"sum\":5,\"min\":5,\"max\":5,"
             "\"buckets\":[[7,1]]}"),
      Bad, &Err));
}

TEST(Histogram, ConcurrentRecordingMatchesSerial) {
  ConcurrentHistogram CH;
  Histogram Serial;
  constexpr unsigned Threads = 4, PerThread = 20000;
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned I = 0; I < PerThread; ++I)
      Serial.record((uint64_t(T) * 2654435761u + I * 40503u) % 1000000);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&CH, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        CH.record((uint64_t(T) * 2654435761u + I * 40503u) % 1000000);
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_TRUE(CH.snapshot() == Serial);
}

//===----------------------------------------------------------------------===//
// Service telemetry: metrics verb, counters, trace IDs
//===----------------------------------------------------------------------===//

TEST(Telemetry, MetricsVerbCountsRequestsAndConditionsHistograms) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);

  JSONValue First = parsed(Svc.handle(compileDoc({SourceA}))); // miss
  JSONValue Second = parsed(Svc.handle(compileDoc({SourceA}))); // hit
  parsed(Svc.handle("{\"v\":1,\"cmd\":\"ping\"}"));

  // Every response carries a 16-hex-digit trace ID, all distinct.
  std::string Id1 = First.getString("trace_id");
  std::string Id2 = Second.getString("trace_id");
  EXPECT_EQ(Id1.size(), 16u);
  EXPECT_EQ(Id2.size(), 16u);
  EXPECT_NE(Id1, Id2);

  JSONValue M = scrape(Svc);
  EXPECT_TRUE(M.get("ok") && M.get("ok")->B);
  EXPECT_GT(M.getU64("uptime_ns"), 0u);
  // The scrape observes itself in flight.
  const JSONValue *Inflight = M.get("inflight");
  ASSERT_NE(Inflight, nullptr);
  EXPECT_EQ(uint64_t(Inflight->Num), 1u);

  // cache.* and serve.* live in one flat counters object, mutually
  // consistent: 2 compile frames, one all-hit and one all-miss.
  EXPECT_EQ(counterFrom(M, "serve.compile_requests"), 2u);
  EXPECT_EQ(counterFrom(M, "serve.hit_requests"), 1u);
  EXPECT_EQ(counterFrom(M, "serve.miss_requests"), 1u);
  EXPECT_EQ(counterFrom(M, "serve.functions"), 2u);
  EXPECT_EQ(counterFrom(M, "cache.hits"), 1u);
  EXPECT_EQ(counterFrom(M, "cache.misses"), 1u);
  EXPECT_EQ(counterFrom(M, "serve.error_requests"), 0u);

  // One end-to-end sample per compile frame; the conditioned histograms
  // partition them.
  EXPECT_EQ(histogramFrom(M, "request_ns").count(), 2u);
  EXPECT_EQ(histogramFrom(M, "request_hit_ns").count(), 1u);
  EXPECT_EQ(histogramFrom(M, "request_miss_ns").count(), 1u);
  EXPECT_EQ(histogramFrom(M, "admit_ns").count(), 2u);
  EXPECT_EQ(histogramFrom(M, "compile_ns").count(), 2u);

  // The -stats-out document is the same schema.
  JSONValue Stats = parsed(Svc.metricsJSON());
  EXPECT_EQ(counterFrom(Stats, "cache.hits"), 1u);
  EXPECT_GE(counterFrom(Stats, "serve.requests"),
            counterFrom(M, "serve.compile_requests"));
}

TEST(Telemetry, ScrapesAreMonotone) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  Svc.handle(compileDoc({SourceA}));
  JSONValue M1 = scrape(Svc);
  Svc.handle(compileDoc({SourceA}));
  Svc.handle(compileDoc({SourceB}));
  JSONValue M2 = scrape(Svc);

  for (const char *C : {"serve.requests", "serve.compile_requests",
                        "serve.hit_requests", "serve.miss_requests",
                        "cache.hits", "cache.misses"})
    EXPECT_GE(counterFrom(M2, C), counterFrom(M1, C)) << C;
  EXPECT_EQ(counterFrom(M2, "serve.compile_requests"),
            counterFrom(M1, "serve.compile_requests") + 2);
  EXPECT_GT(M2.getU64("uptime_ns"), 0u);
  EXPECT_GE(M2.getU64("uptime_ns"), M1.getU64("uptime_ns"));
  EXPECT_EQ(histogramFrom(M2, "request_ns").count(),
            histogramFrom(M1, "request_ns").count() + 2);
}

TEST(Telemetry, ProtocolAndRequestErrorsAreClassified) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  // Malformed frame -> protocol error; bad source -> request error.
  parsed(Svc.handle("this is not json"));
  parsed(Svc.handle(compileDoc({"func @broken("})));
  JSONValue M = scrape(Svc);
  EXPECT_EQ(counterFrom(M, "serve.protocol_errors"), 1u);
  EXPECT_EQ(counterFrom(M, "serve.error_requests"), 1u);
  EXPECT_EQ(counterFrom(M, "serve.request_errors"), 1u);
  // Failed requests never pollute the hit/miss-conditioned histograms.
  EXPECT_EQ(histogramFrom(M, "request_hit_ns").count(), 0u);
  EXPECT_EQ(histogramFrom(M, "request_miss_ns").count(), 0u);
}

//===----------------------------------------------------------------------===//
// Access log
//===----------------------------------------------------------------------===//

TEST(Telemetry, AccessLogRecordsSchemaRoundTrips) {
  std::string LogPath = "/tmp/epre_telemetry_access_" +
                        std::to_string(::getpid()) + ".jsonl";
  std::remove(LogPath.c_str());
  {
    ServiceConfig Cfg;
    Cfg.Workers = 1;
    Cfg.Telemetry.AccessLogPath = LogPath;
    Cfg.Telemetry.SlowThresholdNs = 1; // everything is "slow": spans inline
    CompileService Svc(Cfg);
    Svc.handle(compileDoc({SourceA, SourceB}), {"unix:conn7", 7});
    Svc.handle(compileDoc({SourceA}));
    Svc.handle(compileDoc({"func @broken("}));
    Svc.handle("{\"v\":1,\"cmd\":\"ping\"}");
  }

  std::ifstream In(LogPath);
  ASSERT_TRUE(In.is_open());
  std::vector<JSONValue> Records;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Records.push_back(parsed(Line));
  ASSERT_EQ(Records.size(), 4u);

  const JSONValue &Batch = Records[0];
  EXPECT_EQ(Batch.getString("cmd"), "compile");
  EXPECT_EQ(Batch.getString("peer"), "unix:conn7");
  EXPECT_EQ(Batch.getU64("conn"), 7u);
  EXPECT_EQ(Batch.getString("trace_id").size(), 16u);
  EXPECT_EQ(Batch.getU64("batch"), 2u);
  EXPECT_EQ(Batch.getU64("misses"), 2u);
  EXPECT_EQ(Batch.getString("error_class"), "none");
  EXPECT_GT(Batch.getU64("latency_ns"), 0u);
  EXPECT_GT(Batch.getU64("ts_ms"), 0u);
  const JSONValue *Fns = Batch.get("functions");
  ASSERT_TRUE(Fns && Fns->isArray());
  ASSERT_EQ(Fns->Arr.size(), 2u);
  EXPECT_EQ(Fns->Arr[0].getString("name"), "a");
  EXPECT_FALSE(Fns->Arr[0].get("cached")->B);

  // Slow records inline the span tree, request-relative.
  const JSONValue *Spans = Batch.get("spans");
  ASSERT_TRUE(Spans && Spans->isArray());
  std::set<std::string> Names;
  for (const JSONValue &S : *&Spans->Arr)
    Names.insert(S.getString("name"));
  for (const char *Expected : {"request", "parse", "admit", "compile",
                               "respond"})
    EXPECT_TRUE(Names.count(Expected)) << Expected;

  // The repeat of SourceA is an all-hit record.
  EXPECT_EQ(Records[1].getU64("hits"), 1u);
  EXPECT_EQ(Records[1].getU64("misses"), 0u);
  EXPECT_TRUE(Records[1].get("functions")->Arr[0].get("cached")->B);
  EXPECT_EQ(Records[1].getString("peer"), "local");

  EXPECT_EQ(Records[2].getU64("errors"), 1u);
  EXPECT_EQ(Records[2].getString("error_class"), "parse");

  EXPECT_EQ(Records[3].getString("cmd"), "ping");
  EXPECT_EQ(Records[3].getU64("batch"), 0u);

  // Trace IDs are unique across the run.
  std::set<std::string> Ids;
  for (const JSONValue &R : Records)
    Ids.insert(R.getString("trace_id"));
  EXPECT_EQ(Ids.size(), Records.size());

  std::remove(LogPath.c_str());
}

//===----------------------------------------------------------------------===//
// Span collection and the Chrome trace
//===----------------------------------------------------------------------===//

TEST(Telemetry, ChromeTraceNestsPassTimersInsideRequestSpans) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.Telemetry.CollectSpans = true;
  CompileService Svc(Cfg);
  Svc.handle(compileDoc({SourceA})); // miss: runs the pipeline
  Svc.handle(compileDoc({SourceA})); // hit: request span only

  JSONValue Trace = parsed(Svc.telemetry().chromeTrace());
  const JSONValue *Events = Trace.get("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  struct Ev {
    double Ts, Dur;
  };
  std::vector<Ev> Requests, Compiles, Pipelines;
  for (const JSONValue &E : Events->Arr) {
    std::string Name = E.getString("name");
    const JSONValue *Ts = E.get("ts");
    const JSONValue *Dur = E.get("dur");
    ASSERT_TRUE(Ts && Dur);
    Ev V{Ts->Num, Dur->Num};
    if (Name == "request")
      Requests.push_back(V);
    else if (Name == "compile")
      Compiles.push_back(V);
    else if (Name == "pipeline")
      Pipelines.push_back(V);
  }
  EXPECT_EQ(Requests.size(), 2u);
  EXPECT_EQ(Compiles.size(), 2u);
  // One per-function pass-timer tree, nested (by timestamp containment)
  // inside some request's compile span.
  ASSERT_EQ(Pipelines.size(), 1u);
  auto Contains = [](const Ev &Outer, const Ev &Inner) {
    return Inner.Ts >= Outer.Ts &&
           Inner.Ts + Inner.Dur <= Outer.Ts + Outer.Dur;
  };
  bool InsideCompile = false, InsideRequest = false;
  for (const Ev &C : Compiles)
    InsideCompile |= Contains(C, Pipelines[0]);
  for (const Ev &R : Requests)
    InsideRequest |= Contains(R, Pipelines[0]);
  EXPECT_TRUE(InsideCompile);
  EXPECT_TRUE(InsideRequest);
}

TEST(Telemetry, TraceRetentionIsCapped) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.Telemetry.CollectSpans = true;
  Cfg.Telemetry.MaxTraceSlices = 6; // roughly one request's spans
  CompileService Svc(Cfg);
  for (int I = 0; I < 4; ++I)
    Svc.handle(compileDoc({SourceA}));
  JSONValue Trace = parsed(Svc.telemetry().chromeTrace());
  EXPECT_LE(Trace.get("traceEvents")->Arr.size(), 6u);
  EXPECT_GT(counterFrom(scrape(Svc), "serve.trace_slices_dropped"), 0u);
}

TEST(Telemetry, SpanCollectionPreservesHitIdentity) {
  // Pass timers must not leak into the cached payload: a hit under span
  // collection is still bit-identical per function to the original miss.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.Telemetry.CollectSpans = true;
  CompileService Svc(Cfg);
  JSONValue Miss = parsed(Svc.handle(compileDoc({SourceA})));
  JSONValue Hit = parsed(Svc.handle(compileDoc({SourceA})));
  const JSONValue *MF = Miss.get("responses")->Arr[0].get("functions");
  const JSONValue *HF = Hit.get("responses")->Arr[0].get("functions");
  ASSERT_TRUE(MF && HF);
  EXPECT_EQ(MF->Arr[0].getString("iloc"), HF->Arr[0].getString("iloc"));
  EXPECT_FALSE(MF->Arr[0].get("cached")->B);
  EXPECT_TRUE(HF->Arr[0].get("cached")->B);
}

//===----------------------------------------------------------------------===//
// Replay acceptance: one sample per request, hits faster than misses
//===----------------------------------------------------------------------===//

TEST(Telemetry, ReplayHistogramCountsRequestsAndHitsBeatMisses) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);

  TraceOptions TO;
  TO.Requests = 100;
  TO.DupRatio = 0.9;
  TO.Seed = 42;
  std::vector<std::string> Lines = generateSuiteTrace(TO);
  ASSERT_EQ(Lines.size(), 100u);
  for (const std::string &L : Lines)
    Svc.handle("{\"v\":1,\"cmd\":\"compile\",\"requests\":[" + L + "]}");

  JSONValue M = scrape(Svc);
  Histogram All = histogramFrom(M, "request_ns");
  Histogram Hit = histogramFrom(M, "request_hit_ns");
  Histogram Miss = histogramFrom(M, "request_miss_ns");

  // Batch-1 replay: one histogram sample per request sent.
  EXPECT_EQ(All.count(), 100u);
  EXPECT_EQ(Hit.count() + Miss.count(), 100u);
  EXPECT_EQ(Hit.count(), counterFrom(M, "cache.hits"));
  EXPECT_EQ(Miss.count(), counterFrom(M, "cache.misses"));
  EXPECT_GT(Hit.count(), 0u);
  EXPECT_GT(Miss.count(), 0u);

  // Cache hits skip the pipeline entirely; their median must sit strictly
  // below the miss median.
  EXPECT_LT(Hit.percentile(0.5), Miss.percentile(0.5));
}

//===----------------------------------------------------------------------===//
// Daemon integration: flags, flush, socket metrics
//===----------------------------------------------------------------------===//

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

std::string roundTrip(int Fd, const std::string &Doc) {
  std::string Err, Payload;
  EXPECT_TRUE(writeFrame(Fd, Doc, &Err)) << Err;
  EXPECT_EQ(readFrame(Fd, Payload, &Err), FrameStatus::Ok) << Err;
  return Payload;
}

TEST(Daemon, ServesMetricsAndFlushesStatsAndTrace) {
  std::string Base = "/tmp/epre_telemetry_" + std::to_string(::getpid());
  std::string Sock = Base + ".sock";
  std::string Stats = Base + ".stats.json";
  std::string TraceOut = Base + ".trace.json";

  ServerConfig SC;
  SC.SocketPath = Sock;
  SC.StatsOutPath = Stats;
  SC.StatsFlushSeconds = 1;
  SC.TraceOutPath = TraceOut; // implies span collection
  SC.Service.Workers = 2;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  bool RunOk = false;
  std::thread Server([&] { RunOk = D.run(); });

  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  parsed(roundTrip(Fd, compileDoc({SourceA})));
  parsed(roundTrip(Fd, compileDoc({SourceA})));
  JSONValue M = parsed(roundTrip(Fd, "{\"v\":1,\"cmd\":\"metrics\"}"));
  EXPECT_TRUE(M.get("ok") && M.get("ok")->B);
  EXPECT_EQ(counterFrom(M, "serve.compile_requests"), 2u);
  EXPECT_EQ(histogramFrom(M, "request_ns").count(), 2u);
  ::close(Fd);

  D.requestStop();
  Server.join();
  EXPECT_TRUE(RunOk);

  // Exit-path flush: both artifacts exist and parse.
  std::ifstream StatsIn(Stats);
  ASSERT_TRUE(StatsIn.is_open());
  std::stringstream SBuf;
  SBuf << StatsIn.rdbuf();
  JSONValue StatsDoc = parsed(SBuf.str());
  EXPECT_EQ(counterFrom(StatsDoc, "serve.compile_requests"), 2u);
  EXPECT_EQ(counterFrom(StatsDoc, "cache.hits"), 1u);

  std::ifstream TraceIn(TraceOut);
  ASSERT_TRUE(TraceIn.is_open());
  std::stringstream TBuf;
  TBuf << TraceIn.rdbuf();
  JSONValue TraceDoc = parsed(TBuf.str());
  bool SawRequest = false, SawPipeline = false;
  for (const JSONValue &E : TraceDoc.get("traceEvents")->Arr) {
    SawRequest |= E.getString("name") == "request";
    SawPipeline |= E.getString("name") == "pipeline";
  }
  EXPECT_TRUE(SawRequest);
  EXPECT_TRUE(SawPipeline);

  std::remove(Stats.c_str());
  std::remove(TraceOut.c_str());
}

} // namespace
