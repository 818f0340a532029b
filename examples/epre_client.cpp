//===- examples/epre_client.cpp - Compile-server client -------------------===//
///
/// Client for the epre-served daemon (docs/serving.md). Three modes:
///
/// One-shot: compile FILE and print the optimized ILOC on stdout.
///   epre-client -socket PATH FILE [-lang iloc|fortran] [-O LEVEL]
///               [-strategy S] [-gvn E] [-naming N]
///
/// Trace generation (no daemon needed): write a replay trace drawn from
/// the 50-routine Mini-FORTRAN suite with a duplicate-function ratio.
///   epre-client -gen-trace FILE [-requests N] [-dup-ratio R] [-seed S]
///
/// Replay: send a trace against the daemon in request batches, report
/// sustained compiles/sec, client-observed frame-latency percentiles
/// (overall and split by cache-hit vs cache-miss frames), and the
/// daemon's cache counters.
///   epre-client -socket PATH -replay FILE [-batch N] [-min-hits N]
///
/// Control commands:
///   -ping           liveness check (raw JSON response)
///   -server-stats   live metrics as an aligned table: counters, uptime,
///                   inflight gauge, and latency-histogram percentiles
///                   (add -json for the raw metrics document)
///   -metrics        live metrics as Prometheus text exposition
///                   (add -json for the raw metrics document)
///   -shutdown       orderly daemon shutdown
/// Exit status: nonzero on connection/protocol/compile errors, or when
/// -min-hits N is given and the daemon reports fewer cache hits.
///
//===----------------------------------------------------------------------===//

#include "instrument/Histogram.h"
#include "instrument/JSONReader.h"
#include "instrument/JSONWriter.h"
#include "serve/Protocol.h"
#include "serve/Telemetry.h"
#include "serve/Trace.h"
#include "support/StringUtil.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace epre;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s -socket PATH FILE [-lang iloc|fortran] [-O LEVEL]\n"
      "       [-strategy S] [-gvn E] [-naming N]\n"
      "   or: %s -gen-trace FILE [-requests N] [-dup-ratio R] [-seed S]\n"
      "   or: %s -socket PATH -replay FILE [-batch N] [-min-hits N]\n"
      "   or: %s -socket PATH -ping | -server-stats [-json] |\n"
      "       -metrics [-json] | -shutdown\n",
      Argv0, Argv0, Argv0, Argv0);
  return 2;
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::strcpy(Addr.sun_path, Path.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Sends one document, receives one document. Empty return = failure.
std::string roundTrip(int Fd, const std::string &Request) {
  std::string Err, Response;
  if (!writeFrame(Fd, Request, &Err) ||
      readFrame(Fd, Response, &Err) != FrameStatus::Ok) {
    std::fprintf(stderr, "epre-client: %s\n", Err.c_str());
    return "";
  }
  return Response;
}

/// Renders the batch-level options object from the CLI strings (already
/// validated server-side; empty strings are omitted and default there).
void writeOptions(JSONWriter &W, const std::string &Level,
                  const std::string &Strategy, const std::string &Gvn,
                  const std::string &Naming) {
  W.key("options").beginObject();
  if (!Level.empty())
    W.key("level").value(Level);
  if (!Strategy.empty())
    W.key("strategy").value(Strategy);
  if (!Gvn.empty())
    W.key("gvn").value(Gvn);
  if (!Naming.empty())
    W.key("naming").value(Naming);
  W.endObject();
}

bool responseOk(const JSONValue &Doc) {
  const JSONValue *Ok = Doc.get("ok");
  return Ok && Ok->K == JSONValue::Bool && Ok->B;
}

/// "312ns" / "4.2us" / "1.83ms" / "2.41s" — human units for the tables.
std::string fmtNs(uint64_t Ns) {
  char Buf[32];
  if (Ns < 1000)
    std::snprintf(Buf, sizeof Buf, "%lluns", (unsigned long long)Ns);
  else if (Ns < 1000 * 1000)
    std::snprintf(Buf, sizeof Buf, "%.1fus", double(Ns) / 1e3);
  else if (Ns < 1000ull * 1000 * 1000)
    std::snprintf(Buf, sizeof Buf, "%.2fms", double(Ns) / 1e6);
  else
    std::snprintf(Buf, sizeof Buf, "%.2fs", double(Ns) / 1e9);
  return Buf;
}

/// The -server-stats rendering of a metrics document: counters, uptime,
/// inflight gauge, and one percentile row per latency histogram.
void printMetricsTable(const JSONValue &Doc) {
  double Up = double(Doc.getU64("uptime_ns")) / 1e9;
  long long Inflight = 0;
  if (const JSONValue *I = Doc.get("inflight"); I && I->isNumber())
    Inflight = (long long)I->Num;
  std::printf("epre-served metrics: uptime %.1fs, %lld request(s) in flight\n",
              Up, Inflight);

  if (const JSONValue *Cs = Doc.get("counters"); Cs && Cs->isObject()) {
    size_t Width = std::strlen("counter");
    for (const auto &[Name, V] : Cs->Obj)
      Width = std::max(Width, Name.size());
    std::printf("\n%-*s  %12s\n", int(Width), "counter", "value");
    for (const auto &[Name, V] : Cs->Obj)
      if (V.IsUInt)
        std::printf("%-*s  %12llu\n", int(Width), Name.c_str(),
                    (unsigned long long)V.UInt);
  }

  if (const JSONValue *Hs = Doc.get("histograms"); Hs && Hs->isObject()) {
    std::printf("\n%-16s %8s %9s %9s %9s %9s\n", "histogram", "count", "p50",
                "p90", "p99", "max");
    for (const auto &[Name, V] : Hs->Obj) {
      Histogram H;
      if (!Histogram::fromJSONValue(V, H, nullptr))
        continue;
      std::printf("%-16s %8llu %9s %9s %9s %9s\n", Name.c_str(),
                  (unsigned long long)H.count(),
                  fmtNs(H.percentile(0.50)).c_str(),
                  fmtNs(H.percentile(0.90)).c_str(),
                  fmtNs(H.percentile(0.99)).c_str(), fmtNs(H.max()).c_str());
    }
  }
}

/// One "p50 A  p90 B  p99 C  max D" percentile line for the replay report.
void printLatencyLine(const char *Label, const Histogram &H) {
  std::printf("%s (%llu frames): p50 %s  p90 %s  p99 %s  max %s\n", Label,
              (unsigned long long)H.count(), fmtNs(H.percentile(0.50)).c_str(),
              fmtNs(H.percentile(0.90)).c_str(),
              fmtNs(H.percentile(0.99)).c_str(), fmtNs(H.max()).c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string Socket, File, Lang = "iloc";
  std::string Level, Strategy, Gvn, Naming;
  std::string GenTrace, Replay;
  unsigned Requests = 100, Batch = 16;
  double DupRatio = 0.8;
  uint64_t Seed = 1;
  long long MinHits = -1;
  bool Ping = false, ServerStats = false, Shutdown = false, Metrics = false,
       Json = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&](std::string &Out) {
      if (I + 1 >= argc)
        return false;
      Out = argv[++I];
      return true;
    };
    std::string V;
    if (A == "-socket" && next(V))
      Socket = V;
    else if (A == "-lang" && next(V))
      Lang = V;
    else if (A == "-O" && next(V))
      Level = V;
    else if (A == "-strategy" && next(V))
      Strategy = V;
    else if (A == "-gvn" && next(V))
      Gvn = V;
    else if (A == "-naming" && next(V))
      Naming = V;
    else if (A == "-gen-trace" && next(V))
      GenTrace = V;
    else if (A == "-replay" && next(V))
      Replay = V;
    else if (A == "-requests" && next(V))
      Requests = unsigned(std::strtoul(V.c_str(), nullptr, 10));
    else if (A == "-dup-ratio" && next(V))
      DupRatio = std::strtod(V.c_str(), nullptr);
    else if (A == "-seed" && next(V)) {
      if (!parseUnsigned(V, Seed)) {
        std::fprintf(stderr, "epre-client: -seed needs a non-negative number, "
                     "got '%s'\n", V.c_str());
        return 2;
      }
    }
    else if (A == "-batch" && next(V))
      Batch = std::max(1u, unsigned(std::strtoul(V.c_str(), nullptr, 10)));
    else if (A == "-min-hits" && next(V))
      MinHits = std::strtoll(V.c_str(), nullptr, 10);
    else if (A == "-ping")
      Ping = true;
    else if (A == "-server-stats")
      ServerStats = true;
    else if (A == "-metrics")
      Metrics = true;
    else if (A == "-json")
      Json = true;
    else if (A == "-shutdown")
      Shutdown = true;
    else if (!A.empty() && A[0] != '-')
      File = A;
    else
      return usage(argv[0]);
  }

  if (!GenTrace.empty()) {
    TraceOptions TO;
    TO.Requests = Requests;
    TO.DupRatio = DupRatio;
    TO.Seed = Seed;
    std::ofstream Out(GenTrace);
    if (!Out) {
      std::fprintf(stderr, "epre-client: cannot write %s\n",
                   GenTrace.c_str());
      return 1;
    }
    Out << generateSuiteTraceText(TO);
    std::fprintf(stderr,
                 "epre-client: wrote %u requests (dup-ratio %.2f) to %s\n",
                 Requests, DupRatio, GenTrace.c_str());
    return 0;
  }

  if (Socket.empty())
    return usage(argv[0]);
  std::signal(SIGPIPE, SIG_IGN);
  int Fd = connectTo(Socket);
  if (Fd < 0) {
    std::fprintf(stderr, "epre-client: cannot connect to %s\n",
                 Socket.c_str());
    return 1;
  }

  if (Ping || ServerStats || Shutdown || Metrics) {
    // -server-stats and -metrics both read the `metrics` verb (the richer
    // superset of the legacy `stats` document) and differ only in
    // rendering: aligned table vs Prometheus text, raw JSON under -json.
    JSONWriter W;
    W.beginObject();
    W.key("v").value(uint64_t(1));
    W.key("cmd").value(Ping ? "ping" : Shutdown ? "shutdown" : "metrics");
    W.endObject();
    std::string Resp = roundTrip(Fd, W.take());
    ::close(Fd);
    if (Resp.empty())
      return 1;
    JSONValue Doc;
    std::string Err;
    if (!parseJSON(Resp, Doc, &Err)) {
      std::fprintf(stderr, "epre-client: bad response: %s\n", Err.c_str());
      return 1;
    }
    if (!responseOk(Doc)) {
      std::printf("%s\n", Resp.c_str());
      return 1;
    }
    if (Ping || Shutdown || Json)
      std::printf("%s\n", Resp.c_str());
    else if (Metrics)
      std::printf("%s", metricsToPrometheus(Doc).c_str());
    else
      printMetricsTable(Doc);
    return 0;
  }

  if (!Replay.empty()) {
    std::ifstream In(Replay);
    if (!In) {
      std::fprintf(stderr, "epre-client: cannot open %s\n", Replay.c_str());
      ::close(Fd);
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::vector<std::string> Lines = parseTraceLines(Buf.str());
    if (Lines.empty()) {
      std::fprintf(stderr, "epre-client: %s holds no requests\n",
                   Replay.c_str());
      ::close(Fd);
      return 1;
    }

    uint64_t Hits = 0, Misses = 0, Compiled = 0;
    // Client-observed latency per protocol frame, split by whether the
    // whole frame was answered from the daemon's cache (the same
    // hit-frame definition the daemon's own histograms use).
    Histogram FrameNs, HitFrameNs, MissFrameNs;
    auto Start = std::chrono::steady_clock::now();
    for (size_t Pos = 0; Pos < Lines.size(); Pos += Batch) {
      JSONWriter W;
      W.beginObject();
      W.key("v").value(uint64_t(1));
      W.key("cmd").value("compile");
      writeOptions(W, Level, Strategy, Gvn, Naming);
      W.key("requests").beginArray();
      for (size_t I = Pos; I < std::min(Lines.size(), Pos + Batch); ++I)
        W.raw(Lines[I]);
      W.endArray();
      W.endObject();
      auto FrameStart = std::chrono::steady_clock::now();
      std::string Resp = roundTrip(Fd, W.take());
      uint64_t FrameDurNs =
          uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - FrameStart)
                       .count());
      if (Resp.empty()) {
        ::close(Fd);
        return 1;
      }
      JSONValue Doc;
      std::string Err;
      if (!parseJSON(Resp, Doc, &Err) || !responseOk(Doc)) {
        std::fprintf(stderr, "epre-client: bad response: %s\n",
                     Err.empty() ? Doc.getString("error", "?").c_str()
                                 : Err.c_str());
        ::close(Fd);
        return 1;
      }
      unsigned CachedFns = 0, TotalFns = 0;
      if (const JSONValue *Rs = Doc.get("responses"))
        for (const JSONValue &R : Rs->Arr) {
          if (!responseOk(R)) {
            std::fprintf(stderr, "epre-client: request %s failed: %s\n",
                         R.getString("id", "?").c_str(),
                         R.getString("error", "?").c_str());
            ::close(Fd);
            return 1;
          }
          ++Compiled;
          if (const JSONValue *Fns = R.get("functions"))
            for (const JSONValue &F : Fns->Arr) {
              ++TotalFns;
              if (const JSONValue *C = F.get("cached");
                  C && C->K == JSONValue::Bool && C->B)
                ++CachedFns;
            }
        }
      FrameNs.record(FrameDurNs);
      if (TotalFns > 0 && CachedFns == TotalFns)
        HitFrameNs.record(FrameDurNs);
      else
        MissFrameNs.record(FrameDurNs);
      if (const JSONValue *C = Doc.get("cache")) {
        Hits = C->getU64("hits");
        Misses = C->getU64("misses");
      }
    }
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    std::printf("replayed %llu requests in %.3fs: %.1f compiles/sec "
                "(daemon totals: %llu hits, %llu misses)\n",
                (unsigned long long)Compiled, Secs,
                Secs > 0 ? double(Compiled) / Secs : 0.0,
                (unsigned long long)Hits, (unsigned long long)Misses);
    printLatencyLine("frame latency", FrameNs);
    if (HitFrameNs.count())
      printLatencyLine("  cache-hit  frames", HitFrameNs);
    if (MissFrameNs.count())
      printLatencyLine("  cache-miss frames", MissFrameNs);
    ::close(Fd);
    if (MinHits >= 0 && Hits < uint64_t(MinHits)) {
      std::fprintf(stderr,
                   "epre-client: expected >= %lld cache hits, daemon "
                   "reports %llu\n",
                   MinHits, (unsigned long long)Hits);
      return 1;
    }
    return 0;
  }

  // One-shot compile.
  if (File.empty()) {
    ::close(Fd);
    return usage(argv[0]);
  }
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "epre-client: cannot open %s\n", File.c_str());
    ::close(Fd);
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  JSONWriter W;
  W.beginObject();
  W.key("v").value(uint64_t(1));
  W.key("cmd").value("compile");
  writeOptions(W, Level, Strategy, Gvn, Naming);
  W.key("requests").beginArray().beginObject();
  W.key("id").value("cli");
  W.key("lang").value(Lang);
  W.key("source").value(Buf.str());
  W.endObject().endArray();
  W.endObject();
  std::string Resp = roundTrip(Fd, W.take());
  ::close(Fd);
  if (Resp.empty())
    return 1;
  JSONValue Doc;
  std::string Err;
  if (!parseJSON(Resp, Doc, &Err)) {
    std::fprintf(stderr, "epre-client: bad response: %s\n", Err.c_str());
    return 1;
  }
  if (!responseOk(Doc)) {
    std::fprintf(stderr, "epre-client: %s\n",
                 Doc.getString("error", "request failed").c_str());
    return 1;
  }
  const JSONValue *Rs = Doc.get("responses");
  if (!Rs || !Rs->isArray() || Rs->Arr.empty() || !responseOk(Rs->Arr[0])) {
    std::fprintf(stderr, "epre-client: compile failed: %s\n",
                 Rs && !Rs->Arr.empty()
                     ? Rs->Arr[0].getString("error", "?").c_str()
                     : "empty response");
    return 1;
  }
  std::printf("%s", Rs->Arr[0].getString("iloc").c_str());
  return 0;
}
