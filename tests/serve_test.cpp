//===- tests/serve_test.cpp - Compile-server unit and integration tests ---===//
///
/// Covers the serve layer bottom-up: ResultCache semantics (content
/// addressing, options fingerprint, LRU byte budget), frame round-trips
/// over a socketpair, request parsing, CompileService batch behavior (the
/// cache-hit-is-bit-identical differential, in-batch dedup, same-name
/// rounds, error isolation), the trace generator, and finally a real
/// ServeDaemon on a Unix-domain socket with concurrent clients.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Service.h"
#include "serve/Trace.h"

#include "TestUtil.h"

#include "instrument/JSONReader.h"
#include "instrument/Profile.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
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

/// {"v":1,"cmd":"compile","requests":[{"id":...,"lang":"iloc","source":...}]}
std::string compileDoc(const std::vector<std::string> &Sources,
                       const std::string &OptionsJSON = "") {
  std::string Doc = "{\"v\":1,\"cmd\":\"compile\"";
  if (!OptionsJSON.empty())
    Doc += ",\"options\":" + OptionsJSON;
  Doc += ",\"requests\":[";
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

/// Deterministic re-serialization of a parsed JSON value (member order is
/// preserved by the parser), so payloads can be compared structurally.
std::string jsonText(const JSONValue &V) {
  switch (V.K) {
  case JSONValue::Null:
    return "null";
  case JSONValue::Bool:
    return V.B ? "true" : "false";
  case JSONValue::Number:
    return V.IsUInt ? std::to_string(V.UInt) : std::to_string(V.Num);
  case JSONValue::String:
    return "\"" + jsonEscape(V.Str) + "\"";
  case JSONValue::Array: {
    std::string S = "[";
    for (size_t I = 0; I < V.Arr.size(); ++I)
      S += (I ? "," : "") + jsonText(V.Arr[I]);
    return S + "]";
  }
  case JSONValue::Object: {
    std::string S = "{";
    for (size_t I = 0; I < V.Obj.size(); ++I)
      S += (I ? "," : "") + ("\"" + jsonEscape(V.Obj[I].first) +
                             "\":" + jsonText(V.Obj[I].second));
    return S + "}";
  }
  }
  return "";
}

JSONValue parsed(const std::string &Doc) {
  JSONValue V;
  std::string Err;
  EXPECT_TRUE(parseJSON(Doc, V, &Err)) << Err << "\nin: " << Doc;
  return V;
}

const JSONValue *firstFunction(const JSONValue &Response, size_t Req = 0) {
  const JSONValue *Rs = Response.get("responses");
  if (!Rs || !Rs->isArray() || Rs->Arr.size() <= Req)
    return nullptr;
  const JSONValue *Fns = Rs->Arr[Req].get("functions");
  if (!Fns || !Fns->isArray() || Fns->Arr.empty())
    return nullptr;
  return &Fns->Arr[0];
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

//===----------------------------------------------------------------------===//
// Options fingerprint
//===----------------------------------------------------------------------===//

TEST(OptionsFingerprint, CoversOutputAffectingFields) {
  PipelineOptions Base = serveDefaultOptions();
  uint64_t FP = optionsFingerprint(Base);
  EXPECT_EQ(FP, optionsFingerprint(Base));

  PipelineOptions O = Base;
  O.Level = OptLevel::Baseline;
  EXPECT_NE(optionsFingerprint(O), FP);
  O = Base;
  O.Strategy = PREStrategy::MorelRenvoise;
  EXPECT_NE(optionsFingerprint(O), FP);
  // Every GVN engine gets its own cache key: engines produce different
  // name spaces, so a hit under the wrong engine would be a miscompile.
  for (GVNEngine E : AllGVNEngines) {
    if (E == Base.Engine)
      continue;
    O = Base;
    O.Engine = E;
    EXPECT_NE(optionsFingerprint(O), FP) << gvnEngineName(E);
  }
  O = Base;
  O.AllowFPReassoc = !O.AllowFPReassoc;
  EXPECT_NE(optionsFingerprint(O), FP);
  O = Base;
  O.EnableStrengthReduction = !O.EnableStrengthReduction;
  EXPECT_NE(optionsFingerprint(O), FP);
}

/// A one-function, one-block profile document for fingerprint/protocol
/// tests; \p Count varies the content.
ProfileDoc tinyProfile(const char *Fn, uint64_t Count) {
  ProfileDoc D;
  FunctionProfile FP;
  FP.Function = Fn;
  BlockProfile B;
  B.Label = "e";
  B.Count = Count;
  FP.Blocks.push_back(std::move(B));
  D.Profiles.push_back(std::move(FP));
  return D;
}

TEST(OptionsFingerprint, ProfileContentParticipates) {
  PipelineOptions Base = serveDefaultOptions();
  uint64_t NoProfile = optionsFingerprint(Base);

  ProfileDoc D = tinyProfile("f", 10);
  PipelineOptions O = Base;
  O.ProfileIn = &D;
  uint64_t WithProfile = optionsFingerprint(O);
  EXPECT_NE(WithProfile, NoProfile);

  // The fingerprint keys on content, not identity: an equal copy at a
  // different address hashes the same...
  ProfileDoc Copy = D;
  PipelineOptions O2 = Base;
  O2.ProfileIn = &Copy;
  EXPECT_EQ(optionsFingerprint(O2), WithProfile);

  // ...and a single changed count separates the entries.
  Copy.Profiles[0].Blocks[0].Count = 11;
  EXPECT_NE(optionsFingerprint(O2), WithProfile);
}

TEST(OptionsFingerprint, IgnoresObservabilityPlumbing) {
  PipelineOptions Base = serveDefaultOptions();
  PipelineOptions O = Base;
  O.Verify = !O.Verify;
  EXPECT_EQ(optionsFingerprint(O), optionsFingerprint(Base));
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

CachedFunction entry(const std::string &Name, size_t PayloadBytes = 0) {
  CachedFunction V;
  V.Name = Name;
  V.ILOC = std::string(PayloadBytes, 'x');
  V.RemarksJSON = "[]";
  V.StatsJSON = "{}";
  return V;
}

TEST(ResultCache, MissInsertHit) {
  ResultCache C(1 << 20, 1);
  CachedFunction Out;
  EXPECT_FALSE(C.lookup(1, 2, Out));
  EXPECT_EQ(C.misses(), 1u);

  C.insert(1, 2, entry("f", 10));
  EXPECT_TRUE(C.lookup(1, 2, Out));
  EXPECT_EQ(Out.Name, "f");
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.insertions(), 1u);
  EXPECT_EQ(C.entries(), 1u);
}

TEST(ResultCache, FingerprintMismatchMisses) {
  ResultCache C(1 << 20, 1);
  C.insert(1, 2, entry("f"));
  CachedFunction Out;
  EXPECT_FALSE(C.lookup(1, 3, Out)); // same IR, different options
  EXPECT_FALSE(C.lookup(9, 2, Out)); // different IR, same options
  EXPECT_TRUE(C.lookup(1, 2, Out));
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.hits(), 1u);
}

TEST(ResultCache, LRUEvictionRespectsByteBudget) {
  // One shard so the budget is a single LRU list. Each entry is ~1KiB of
  // payload; a 3-entry budget must hold at most 3 and evict the least
  // recently used one.
  size_t One = entry("e", 1024).byteSize() + 1; // +1: one-char names below
  ResultCache C(3 * One, 1);
  C.insert(1, 0, entry("a", 1024));
  C.insert(2, 0, entry("b", 1024));
  C.insert(3, 0, entry("c", 1024));
  EXPECT_EQ(C.entries(), 3u);
  EXPECT_EQ(C.evictions(), 0u);

  CachedFunction Out;
  ASSERT_TRUE(C.lookup(1, 0, Out)); // refresh "a": "b" is now LRU
  C.insert(4, 0, entry("d", 1024));
  EXPECT_EQ(C.entries(), 3u);
  EXPECT_EQ(C.evictions(), 1u);
  EXPECT_LE(C.bytes(), C.byteBudget());
  EXPECT_TRUE(C.lookup(1, 0, Out));  // refreshed: survived
  EXPECT_FALSE(C.lookup(2, 0, Out)); // LRU victim
  EXPECT_TRUE(C.lookup(3, 0, Out));
  EXPECT_TRUE(C.lookup(4, 0, Out));
}

TEST(ResultCache, OversizedEntryIsUncacheableNotAnError) {
  ResultCache C(128, 1);
  C.insert(1, 0, entry("big", 4096)); // admit-then-evict
  EXPECT_EQ(C.entries(), 0u);
  EXPECT_EQ(C.evictions(), 1u);
  CachedFunction Out;
  EXPECT_FALSE(C.lookup(1, 0, Out));
}

TEST(ResultCache, ExportStatsAndClear) {
  ResultCache C(1 << 20, 2);
  C.insert(1, 0, entry("f"));
  CachedFunction Out;
  C.lookup(1, 0, Out);
  C.lookup(2, 0, Out);

  StatsRegistry R;
  C.exportStats(R);
  EXPECT_EQ(R.get("cache", "hits"), 1u);
  EXPECT_EQ(R.get("cache", "misses"), 1u);
  EXPECT_EQ(R.get("cache", "insertions"), 1u);
  EXPECT_EQ(R.get("cache", "entries"), 1u);
  EXPECT_EQ(R.get("cache", "byte_budget"), uint64_t(1) << 20);

  C.clear();
  EXPECT_EQ(C.entries(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
  EXPECT_EQ(C.hits(), 1u); // counters accumulate across clear()
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    for (int Fd : Fds)
      if (Fd >= 0)
        ::close(Fd);
  }
  void closeWrite() {
    ::close(Fds[0]);
    Fds[0] = -1;
  }
};

TEST(Framing, RoundTripsSequentialFrames) {
  SocketPair P;
  std::string Err;
  ASSERT_TRUE(writeFrame(P.Fds[0], "hello", &Err)) << Err;
  ASSERT_TRUE(writeFrame(P.Fds[0], "", &Err)) << Err;
  std::string Big(100000, 'z');
  ASSERT_TRUE(writeFrame(P.Fds[0], Big, &Err)) << Err;

  std::string Payload;
  EXPECT_EQ(readFrame(P.Fds[1], Payload, &Err), FrameStatus::Ok);
  EXPECT_EQ(Payload, "hello");
  EXPECT_EQ(readFrame(P.Fds[1], Payload, &Err), FrameStatus::Ok);
  EXPECT_EQ(Payload, "");
  EXPECT_EQ(readFrame(P.Fds[1], Payload, &Err), FrameStatus::Ok);
  EXPECT_EQ(Payload, Big);
}

TEST(Framing, EOFAtBoundaryIsClosedMidFrameIsError) {
  {
    SocketPair P;
    P.closeWrite();
    std::string Payload, Err;
    EXPECT_EQ(readFrame(P.Fds[1], Payload, &Err), FrameStatus::Closed);
  }
  {
    SocketPair P;
    // A prefix promising 100 bytes, then only 3 bytes and EOF.
    unsigned char Prefix[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(P.Fds[0], Prefix, 4), 4);
    ASSERT_EQ(::write(P.Fds[0], "abc", 3), 3);
    P.closeWrite();
    std::string Payload, Err;
    EXPECT_EQ(readFrame(P.Fds[1], Payload, &Err), FrameStatus::Error);
  }
}

TEST(Framing, OversizedFrameIsRejectedWithoutAllocation) {
  SocketPair P;
  unsigned char Prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(P.Fds[0], Prefix, 4), 4);
  std::string Payload, Err;
  EXPECT_EQ(readFrame(P.Fds[1], Payload, &Err, /*MaxBytes=*/1024),
            FrameStatus::Error);
  EXPECT_NE(Err.find("frame"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Request parsing
//===----------------------------------------------------------------------===//

TEST(Protocol, ParsesCompileRequestWithOptions) {
  ServeRequest R;
  std::string Err;
  // "strength-reduce-mul" names a retired option; like any unknown member
  // it is ignored.
  ASSERT_TRUE(parseServeRequest(
      compileDoc({SourceA}, "{\"level\":\"baseline\",\"fp-reassoc\":false,"
                            "\"strength-reduce-mul\":false}"),
      R, &Err))
      << Err;
  EXPECT_EQ(R.Cmd, ServeRequest::Command::Compile);
  ASSERT_EQ(R.Requests.size(), 1u);
  EXPECT_EQ(R.Requests[0].Id, "r0");
  EXPECT_EQ(R.Requests[0].Lang, CompileRequest::Language::ILOC);
  EXPECT_EQ(R.Options.Level, OptLevel::Baseline);
  EXPECT_FALSE(R.Options.AllowFPReassoc);
  // The server never runs the in-pipeline verifier (it aborts the process);
  // input is verified up front instead.
  EXPECT_FALSE(R.Options.Verify);
}

TEST(Protocol, ParsesEveryGVNEngineAndListsNamesOnRejection) {
  for (GVNEngine E : AllGVNEngines) {
    ServeRequest R;
    std::string Err;
    ASSERT_TRUE(parseServeRequest(
        compileDoc({SourceA}, std::string("{\"gvn\":\"") + gvnEngineName(E) +
                                  "\"}"),
        R, &Err))
        << Err;
    EXPECT_EQ(R.Options.Engine, E) << gvnEngineName(E);
  }
  ServeRequest R;
  std::string Err;
  EXPECT_FALSE(parseServeRequest(
      compileDoc({SourceA}, "{\"gvn\":\"bogus\"}"), R, &Err));
  // The rejection names every valid engine so clients can self-correct.
  for (GVNEngine E : AllGVNEngines)
    EXPECT_NE(Err.find(gvnEngineName(E)), std::string::npos) << Err;
}

TEST(Protocol, RejectsMalformedDocuments) {
  ServeRequest R;
  std::string Err;
  EXPECT_FALSE(parseServeRequest("not json", R, &Err));
  EXPECT_FALSE(parseServeRequest("{\"cmd\":\"frobnicate\"}", R, &Err));
  EXPECT_FALSE(
      parseServeRequest("{\"cmd\":\"compile\",\"requests\":7}", R, &Err));
  EXPECT_FALSE(parseServeRequest(
      "{\"cmd\":\"compile\",\"options\":{\"level\":\"bogus\"},"
      "\"requests\":[]}",
      R, &Err));
}

TEST(Protocol, ParsesEmbeddedProfile) {
  ProfileDoc D = tinyProfile("a", 5);
  ServeRequest R;
  std::string Err;
  ASSERT_TRUE(parseServeRequest(
      compileDoc({SourceA},
                 "{\"strategy\":\"speculative\",\"profile\":" + D.toJSON() +
                     "}"),
      R, &Err))
      << Err;
  EXPECT_EQ(R.Options.Strategy, PREStrategy::Speculative);
  ASSERT_NE(R.Options.ProfileIn, nullptr);
  EXPECT_EQ(R.Options.ProfileIn, R.Profile.get())
      << "Options.ProfileIn must point at the request-owned document";
  ASSERT_EQ(R.Profile->Profiles.size(), 1u);
  EXPECT_EQ(R.Profile->Profiles[0].Function, "a");
}

TEST(Protocol, RejectsSpeculativeWithoutProfile) {
  ServeRequest R;
  std::string Err;
  EXPECT_FALSE(parseServeRequest(
      compileDoc({SourceA}, "{\"strategy\":\"speculative\"}"), R, &Err));
  EXPECT_NE(Err.find("profile"), std::string::npos) << Err;
}

TEST(Protocol, RejectsMalformedProfile) {
  ServeRequest R;
  std::string Err;
  EXPECT_FALSE(parseServeRequest(
      compileDoc({SourceA}, "{\"profile\":{\"schema\":\"bogus\"}}"), R,
      &Err));
  EXPECT_NE(Err.find("profile"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

ServiceConfig testConfig() {
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  return Cfg;
}

TEST(Service, PingStatsShutdown) {
  CompileService Svc(testConfig());
  JSONValue Pong = parsed(Svc.handle("{\"v\":1,\"cmd\":\"ping\"}"));
  EXPECT_TRUE(Pong.get("pong") && Pong.get("pong")->B);

  JSONValue Stats = parsed(Svc.handle("{\"cmd\":\"stats\"}"));
  const JSONValue *Cache = Stats.get("cache");
  ASSERT_TRUE(Cache && Cache->isObject());
  EXPECT_TRUE(Cache->get("hits") && Cache->get("misses"));

  // The -stats-out document uses the flat observability names.
  JSONValue Doc = parsed(Svc.metricsJSON());
  const JSONValue *Counters = Doc.get("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  EXPECT_TRUE(Counters->get("cache.hits"));
  EXPECT_TRUE(Counters->get("cache.byte_budget"));

  EXPECT_FALSE(Svc.shutdownRequested());
  JSONValue Bye = parsed(Svc.handle("{\"cmd\":\"shutdown\"}"));
  EXPECT_TRUE(Bye.get("shutting_down") && Bye.get("shutting_down")->B);
  EXPECT_TRUE(Svc.shutdownRequested());
}

TEST(Service, MalformedRequestYieldsErrorResponse) {
  CompileService Svc(testConfig());
  JSONValue R = parsed(Svc.handle("{{{"));
  ASSERT_TRUE(R.get("ok"));
  EXPECT_FALSE(R.get("ok")->B);
  EXPECT_NE(R.getString("error"), "");
}

TEST(Service, CacheHitIsBitIdenticalToFreshCompile) {
  CompileService Svc(testConfig());
  std::string Doc = compileDoc({SourceA});
  JSONValue Cold = parsed(Svc.handle(Doc));
  JSONValue Warm = parsed(Svc.handle(Doc));
  EXPECT_EQ(Svc.cache().hits(), 1u);
  EXPECT_EQ(Svc.cache().insertions(), 1u);

  const JSONValue *FC = firstFunction(Cold);
  const JSONValue *FW = firstFunction(Warm);
  ASSERT_TRUE(FC && FW);
  EXPECT_FALSE(FC->get("cached")->B);
  EXPECT_TRUE(FW->get("cached")->B);

  // The differential: every payload byte of the hit equals the fresh
  // compile — optimized ILOC, the remark array, and the counter object.
  EXPECT_EQ(FC->getString("name"), FW->getString("name"));
  EXPECT_EQ(FC->getString("iloc"), FW->getString("iloc"));
  EXPECT_EQ(jsonText(*FC->get("remarks")), jsonText(*FW->get("remarks")));
  EXPECT_EQ(jsonText(*FC->get("stats")), jsonText(*FW->get("stats")));

  // And the served ILOC is what the pipeline itself produces on the same
  // input under the same options.
  ParseResult P = parseModule(SourceA);
  ASSERT_TRUE(P.ok()) << P.Error;
  PipelineOptions Opts = serveDefaultOptions();
  optimizeFunction(*P.M->Functions[0], Opts);
  EXPECT_EQ(FC->getString("iloc"), printFunction(*P.M->Functions[0]));
}

TEST(Service, BatchDeduplicatesIdenticalSources) {
  CompileService Svc(testConfig());
  JSONValue R = parsed(Svc.handle(compileDoc({SourceA, SourceB, SourceA})));
  // The duplicate compiles once: three admissions, two pipeline runs.
  EXPECT_EQ(Svc.cache().insertions(), 2u);

  const JSONValue *Rs = R.get("responses");
  ASSERT_TRUE(Rs && Rs->Arr.size() == 3u);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Rs->Arr[I].getString("id"), "r" + std::to_string(I));
    EXPECT_TRUE(Rs->Arr[I].get("ok")->B);
  }
  const JSONValue *F0 = firstFunction(R, 0);
  const JSONValue *F2 = firstFunction(R, 2);
  ASSERT_TRUE(F0 && F2);
  EXPECT_EQ(F0->getString("iloc"), F2->getString("iloc"));
  EXPECT_EQ(jsonText(*F0->get("stats")), jsonText(*F2->get("stats")));
}

TEST(Service, SameNameDifferentBodiesCompileInRounds) {
  // Two requests both defining @f with different bodies: remark streams
  // must not cross-contaminate, so they compile in separate rounds.
  std::string F1 = "func @f() -> i64 {\n^e:\n  %a:i64 = loadi 7\n"
                   "  %b:i64 = add %a, %a\n  ret %b\n}\n";
  std::string F2 = "func @f() -> i64 {\n^e:\n  %a:i64 = loadi 9\n"
                   "  %b:i64 = mul %a, %a\n  ret %b\n}\n";
  CompileService Svc(testConfig());
  JSONValue R = parsed(Svc.handle(compileDoc({F1, F2})));
  const JSONValue *A = firstFunction(R, 0);
  const JSONValue *B = firstFunction(R, 1);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->getString("name"), "f");
  EXPECT_EQ(B->getString("name"), "f");
  EXPECT_NE(A->getString("iloc"), B->getString("iloc"));
  EXPECT_EQ(Svc.cache().insertions(), 2u);
}

TEST(Service, BadSourceIsIsolatedAndDoesNotAbort) {
  CompileService Svc(testConfig());
  JSONValue R =
      parsed(Svc.handle(compileDoc({SourceA, "func @broken( syntax error"})));
  const JSONValue *Rs = R.get("responses");
  ASSERT_TRUE(Rs && Rs->Arr.size() == 2u);
  EXPECT_TRUE(Rs->Arr[0].get("ok")->B);
  EXPECT_FALSE(Rs->Arr[1].get("ok")->B);
  EXPECT_NE(Rs->Arr[1].getString("error"), "");

  // The service keeps serving after the bad request.
  JSONValue Again = parsed(Svc.handle(compileDoc({SourceA})));
  EXPECT_TRUE(Again.get("ok")->B);
  EXPECT_EQ(Svc.cache().hits(), 1u);
}

TEST(Service, OptionsChangeMissesTheCache) {
  CompileService Svc(testConfig());
  Svc.handle(compileDoc({SourceA}));
  Svc.handle(compileDoc({SourceA}, "{\"level\":\"baseline\"}"));
  EXPECT_EQ(Svc.cache().hits(), 0u);
  EXPECT_EQ(Svc.cache().insertions(), 2u);
}

TEST(Service, CompilesMiniFortranTraceRequests) {
  TraceOptions TO;
  TO.Requests = 3;
  TO.DupRatio = 0.0;
  std::vector<std::string> Lines = generateSuiteTrace(TO);
  ASSERT_EQ(Lines.size(), 3u);

  CompileService Svc(testConfig());
  for (const std::string &L : Lines) {
    JSONValue R = parsed(
        Svc.handle("{\"v\":1,\"cmd\":\"compile\",\"requests\":[" + L + "]}"));
    ASSERT_TRUE(R.get("ok") && R.get("ok")->B) << L;
    const JSONValue *Rs = R.get("responses");
    ASSERT_TRUE(Rs && Rs->Arr.size() == 1u);
    EXPECT_TRUE(Rs->Arr[0].get("ok")->B)
        << Rs->Arr[0].getString("error");
    EXPECT_NE(Rs->Arr[0].getString("iloc"), "");
  }
  EXPECT_EQ(Svc.cache().insertions(), 3u);
}

//===----------------------------------------------------------------------===//
// Trace generation
//===----------------------------------------------------------------------===//

TEST(Trace, DeterministicInSeed) {
  TraceOptions TO;
  TO.Requests = 40;
  TO.DupRatio = 0.5;
  EXPECT_EQ(generateSuiteTraceText(TO), generateSuiteTraceText(TO));
  TraceOptions Other = TO;
  Other.Seed = 2;
  EXPECT_NE(generateSuiteTraceText(TO), generateSuiteTraceText(Other));
}

TEST(Trace, DupRatioExtremes) {
  TraceOptions TO;
  TO.Requests = 20;
  TO.DupRatio = 1.0; // first request fresh, every later one repeats it
  std::vector<std::string> Lines = generateSuiteTrace(TO);
  ASSERT_EQ(Lines.size(), 20u);
  auto sourceOf = [](const std::string &L) {
    JSONValue V;
    EXPECT_TRUE(parseJSON(L, V));
    return V.getString("source");
  };
  std::string First = sourceOf(Lines[0]);
  EXPECT_NE(First, "");
  for (const std::string &L : Lines)
    EXPECT_EQ(sourceOf(L), First);

  TO.DupRatio = 0.0; // all distinct while the suite lasts
  Lines = generateSuiteTrace(TO);
  std::set<std::string> Unique;
  for (const std::string &L : Lines)
    Unique.insert(sourceOf(L));
  EXPECT_EQ(Unique.size(), Lines.size());
}

TEST(Trace, ParseLinesRoundTrips) {
  TraceOptions TO;
  TO.Requests = 10;
  std::vector<std::string> Lines = generateSuiteTrace(TO);
  std::vector<std::string> Back = parseTraceLines(generateSuiteTraceText(TO));
  EXPECT_EQ(Back, Lines);
}

//===----------------------------------------------------------------------===//
// Daemon over a real socket, concurrent clients
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

TEST(Daemon, ConcurrentClientsGetDeterministicResults) {
  std::string Path =
      "/tmp/epre_serve_test_" + std::to_string(::getpid()) + ".sock";
  std::string StatsPath = Path + ".stats.json";

  ServerConfig SC;
  SC.SocketPath = Path;
  SC.StatsOutPath = StatsPath;
  SC.Service.Workers = 2;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  bool RunOk = false;
  std::thread Server([&] { RunOk = D.run(); });

  // The expected per-source payloads, computed once through the pipeline.
  std::vector<std::string> Sources = {SourceA, SourceB};
  std::vector<std::string> Expected;
  for (const std::string &S : Sources) {
    ParseResult P = parseModule(S);
    ASSERT_TRUE(P.ok()) << P.Error;
    optimizeFunction(*P.M->Functions[0], serveDefaultOptions());
    Expected.push_back(printFunction(*P.M->Functions[0]));
  }

  constexpr unsigned NumClients = 4, Iterations = 6;
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      int Fd = connectTo(Path);
      if (Fd < 0) {
        Failures[C] = "connect failed";
        return;
      }
      for (unsigned I = 0; I < Iterations; ++I) {
        size_t Which = (C + I) % Sources.size();
        JSONValue R = parsed(roundTrip(Fd, compileDoc({Sources[Which]})));
        const JSONValue *F = firstFunction(R);
        if (!F || F->getString("iloc") != Expected[Which]) {
          Failures[C] = "nondeterministic response for source " +
                        std::to_string(Which);
          return;
        }
      }
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  for (unsigned C = 0; C < NumClients; ++C)
    EXPECT_EQ(Failures[C], "") << "client " << C;

  // Everything past the first two compiles was served from the cache.
  CompileService &Svc = D.service();
  EXPECT_EQ(Svc.cache().insertions(), Sources.size());
  EXPECT_EQ(Svc.cache().hits() + Svc.cache().misses(),
            uint64_t(NumClients) * Iterations);

  // A client-driven shutdown ends run() cleanly and writes stats-out.
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  JSONValue Bye = parsed(roundTrip(Fd, "{\"cmd\":\"shutdown\"}"));
  EXPECT_TRUE(Bye.get("shutting_down") && Bye.get("shutting_down")->B);
  ::close(Fd);
  Server.join();
  EXPECT_TRUE(RunOk);

  std::FILE *Stats = std::fopen(StatsPath.c_str(), "rb");
  ASSERT_NE(Stats, nullptr);
  std::string Text(16 << 10, '\0');
  Text.resize(std::fread(Text.data(), 1, Text.size(), Stats));
  std::fclose(Stats);
  JSONValue V = parsed(Text);
  const JSONValue *Counters = V.get("counters");
  ASSERT_TRUE(Counters);
  EXPECT_GT(Counters->getU64("cache.hits"), 0u);
  std::remove(StatsPath.c_str());
}

TEST(Daemon, PhiInputAtReassociationKeepsTheDaemonUp) {
  // The daemon admits Relaxed input, phis included; the reassociation
  // levels build SSA, which must never see them.
  std::string Path =
      "/tmp/epre_serve_phi_" + std::to_string(::getpid()) + ".sock";
  ServerConfig SC;
  SC.SocketPath = Path;
  SC.Service.Workers = 1;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  std::thread Server([&] { D.run(); });

  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  JSONValue R = parsed(roundTrip(
      Fd, compileDoc({epre::test::ForwardingChainIntoPhi},
                     "{\"level\":\"reassociation\"}")));
  const JSONValue *F = firstFunction(R);
  ASSERT_TRUE(F);
  ParseResult Out = parseModule(F->getString("iloc"));
  ASSERT_TRUE(Out.ok()) << Out.Error;
  EXPECT_EQ(epre::test::runOn(*Out.M->Functions[0], 0), 2);
  EXPECT_EQ(epre::test::runOn(*Out.M->Functions[0], 7), 1);

  JSONValue Pong = parsed(roundTrip(Fd, "{\"v\":1,\"cmd\":\"ping\"}"));
  EXPECT_TRUE(Pong.get("pong") && Pong.get("pong")->B);
  roundTrip(Fd, "{\"cmd\":\"shutdown\"}");
  ::close(Fd);
  Server.join();
}

TEST(Daemon, DuplicateTargetLoopsCompileToTheirValue) {
  // The daemon compiles without the verifier. Each reproducer's cbr names
  // its loop header twice; the returned IR must compute the input's value.
  std::string Path =
      "/tmp/epre_serve_dup_" + std::to_string(::getpid()) + ".sock";
  ServerConfig SC;
  SC.SocketPath = Path;
  SC.Service.Workers = 1;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  std::thread Server([&] { D.run(); });

  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  for (const char *Src : {epre::test::DuplicateTargetLoop,
                          epre::test::DuplicateTargetLoopTwoVars}) {
    ParseResult In = parseModule(Src);
    ASSERT_TRUE(In.ok()) << In.Error;
    const int64_t Want = epre::test::runOn(*In.M->Functions[0], 0);
    for (const char *Level : {"reassociation", "distribution"}) {
      std::string Options = std::string("{\"level\":\"") + Level + "\"}";
      JSONValue R = parsed(roundTrip(Fd, compileDoc({Src}, Options)));
      const JSONValue *F = firstFunction(R);
      ASSERT_TRUE(F) << Level;
      ParseResult Out = parseModule(F->getString("iloc"));
      ASSERT_TRUE(Out.ok()) << Out.Error;
      EXPECT_EQ(epre::test::runOn(*Out.M->Functions[0], 0), Want) << Level;
      EXPECT_EQ(epre::test::runOn(*Out.M->Functions[0], 1), Want) << Level;
    }
  }

  JSONValue Pong = parsed(roundTrip(Fd, "{\"v\":1,\"cmd\":\"ping\"}"));
  EXPECT_TRUE(Pong.get("pong") && Pong.get("pong")->B);
  roundTrip(Fd, "{\"cmd\":\"shutdown\"}");
  ::close(Fd);
  Server.join();
}

TEST(Daemon, CarriedRingAtReassociationKeepsTheDaemonUp) {
  // A loop carrying 500 variables compiles through SSA construction and
  // forward propagation in a worker, and the daemon answers the next ping.
  std::string Path =
      "/tmp/epre_serve_ring_" + std::to_string(::getpid()) + ".sock";
  ServerConfig SC;
  SC.SocketPath = Path;
  SC.Service.Workers = 1;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  std::thread Server([&] { D.run(); });

  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  std::string Ring = epre::test::carriedRing(500);
  ParseResult In = parseModule(Ring);
  ASSERT_TRUE(In.ok()) << In.Error;
  JSONValue R = parsed(
      roundTrip(Fd, compileDoc({Ring}, "{\"level\":\"reassociation\"}")));
  const JSONValue *F = firstFunction(R);
  ASSERT_TRUE(F);
  ParseResult Out = parseModule(F->getString("iloc"));
  ASSERT_TRUE(Out.ok()) << Out.Error;
  EXPECT_EQ(epre::test::runOn(*Out.M->Functions[0], 3),
            epre::test::runOn(*In.M->Functions[0], 3));

  JSONValue Pong = parsed(roundTrip(Fd, "{\"v\":1,\"cmd\":\"ping\"}"));
  EXPECT_TRUE(Pong.get("pong") && Pong.get("pong")->B);
  roundTrip(Fd, "{\"cmd\":\"shutdown\"}");
  ::close(Fd);
  Server.join();
}

TEST(Daemon, DeepFortranIsAFrontendErrorAndTheDaemonStaysUp) {
  // Every nesting shape compiles at MaxSourceNesting; one level more is a
  // frontend error for that request, and the daemon answers the next ping.
  std::string Path =
      "/tmp/epre_serve_deep_" + std::to_string(::getpid()) + ".sock";
  ServerConfig SC;
  SC.SocketPath = Path;
  SC.Service.Workers = 1;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  std::thread Server([&] { D.run(); });

  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  using epre::test::Nesting;
  for (Nesting Shape : {Nesting::Parens, Nesting::Sum, Nesting::Ifs}) {
    for (unsigned Levels : {MaxSourceNesting, MaxSourceNesting + 1}) {
      std::string Doc =
          "{\"v\":1,\"cmd\":\"compile\",\"options\":{\"level\":\"none\"},"
          "\"requests\":[{\"id\":\"r0\",\"lang\":\"fortran\",\"source\":\"" +
          jsonEscape(epre::test::nestedSource(Shape, Levels)) + "\"}]}";
      JSONValue R = parsed(roundTrip(Fd, Doc));
      const JSONValue *Rs = R.get("responses");
      ASSERT_TRUE(Rs && Rs->Arr.size() == 1u);
      const JSONValue &Sub = Rs->Arr[0];
      if (Levels == MaxSourceNesting) {
        EXPECT_TRUE(Sub.get("ok")->B) << Sub.getString("error");
        continue;
      }
      EXPECT_FALSE(Sub.get("ok")->B);
      EXPECT_EQ(Sub.getString("error").rfind("frontend error: line ", 0), 0u)
          << Sub.getString("error");
      JSONValue Pong = parsed(roundTrip(Fd, "{\"v\":1,\"cmd\":\"ping\"}"));
      EXPECT_TRUE(Pong.get("pong") && Pong.get("pong")->B);
    }
  }
  roundTrip(Fd, "{\"cmd\":\"shutdown\"}");
  ::close(Fd);
  Server.join();
}

TEST(Daemon, RequestStopFromAnotherThreadIsClean) {
  std::string Path =
      "/tmp/epre_serve_stop_" + std::to_string(::getpid()) + ".sock";
  ServerConfig SC;
  SC.SocketPath = Path;
  ServeDaemon D(SC);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;
  bool RunOk = false;
  std::thread Server([&] { RunOk = D.run(); });
  D.requestStop();
  Server.join();
  EXPECT_TRUE(RunOk);
}

/// requestStop races run()'s own close of the listen socket: a stop that
/// arrives while the daemon closes must neither touch the closed descriptor
/// nor shut down whatever reuses its number. Stop live daemons from another
/// thread over and over, while a fresh socket pair takes the freed number.
TEST(Daemon, RepeatedStopsRaceTheListenSocketClose) {
  std::string Path =
      "/tmp/epre_serve_restop_" + std::to_string(::getpid()) + ".sock";
  for (unsigned Round = 0; Round < 100; ++Round) {
    ServerConfig SC;
    SC.SocketPath = Path;
    ServeDaemon D(SC);
    std::string Err;
    ASSERT_TRUE(D.start(&Err)) << Err;
    bool RunOk = false;
    std::atomic<bool> Done{false};
    std::thread Server([&] { RunOk = D.run(); });
    std::thread Stopper([&] {
      while (!Done.load())
        D.requestStop();
    });
    Server.join();
    int Pair[2] = {-1, -1};
    bool PairOk = ::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair) == 0;
    for (int I = 0; I < 100; ++I)
      std::this_thread::yield();
    Done = true;
    Stopper.join();
    EXPECT_TRUE(RunOk) << "round " << Round;
    ASSERT_TRUE(PairOk) << "round " << Round;
    char C = 'x';
    EXPECT_EQ(::send(Pair[0], &C, 1, MSG_NOSIGNAL), 1) << "round " << Round;
    EXPECT_EQ(::recv(Pair[1], &C, 1, 0), 1) << "round " << Round;
    ::close(Pair[0]);
    ::close(Pair[1]);
  }
}

} // namespace
