//===- perfbench/src/Serve.cpp - The serve workload -----------------------===//
///
/// An edit/compile replay against an in-process ServeDaemon over its Unix
/// socket: a closed loop of two client connections, each waiting for its
/// reply before sending the next request. About 80% of requests repeat a
/// body sent recently (cache hits); the rest send a seeded edit of a suite
/// routine (a changed real literal), which misses. The daemon compiles with
/// one worker per batch and a cache byte budget below the distinct result
/// bytes a run produces, so insertions and LRU evictions run beside hits.
///
/// The traced run spends half its time on the socket loop and half
/// replaying the same request sequence through an in-process
/// CompileService::handle, which splits the round trip into handle time
/// and socket time.
///
//===----------------------------------------------------------------------===//

#include "Compile.h"

#include "instrument/JSONReader.h"
#include "instrument/JSONWriter.h"
#include "ir/IRParser.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

#include <atomic>
#include <cctype>
#include <cstring>
#include <deque>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace epre;

namespace {

/// Requests the generated sequence holds; far more than a run sends.
constexpr size_t TraceLength = 1u << 20;
/// Share of requests that repeat a recently sent body.
constexpr unsigned RepeatPercent = 80;
/// How many distinct recent bodies a repeat draws from.
constexpr size_t RecentWindow = 12;
/// Result-cache budget: about 150 compiled suite functions, while a run
/// produces thousands of distinct results.
constexpr size_t CacheBytes = 4u << 20;
/// Length of the alternating traced / untraced slices of the traced run.
constexpr uint64_t SliceNs = 250'000'000;

/// One request of the sequence: a suite routine, unedited (Edit 0) or
/// with edit number Edit applied.
struct Req {
  uint32_t Routine = 0;
  uint32_t Edit = 0;
  uint64_t key() const { return (uint64_t(Routine) << 32) | Edit; }
};

/// Offsets of the plain real literals (digits '.' digits) in \p Src.
std::vector<std::pair<size_t, size_t>> realLiterals(const std::string &Src) {
  std::vector<std::pair<size_t, size_t>> L;
  auto Word = [](char C) {
    return std::isalnum((unsigned char)C) || C == '_' || C == '.';
  };
  for (size_t I = 0; I < Src.size(); ++I) {
    if (!std::isdigit((unsigned char)Src[I]) || (I > 0 && Word(Src[I - 1])))
      continue;
    size_t J = I;
    while (J < Src.size() && std::isdigit((unsigned char)Src[J]))
      ++J;
    if (J + 1 >= Src.size() || Src[J] != '.' ||
        !std::isdigit((unsigned char)Src[J + 1])) {
      I = J;
      continue;
    }
    ++J;
    while (J < Src.size() && std::isdigit((unsigned char)Src[J]))
      ++J;
    if (J >= Src.size() || !Word(Src[J]))
      L.push_back({I, J});
    I = J;
  }
  return L;
}

/// The source of \p R: edit E appends seven digits of E to one of the
/// routine's real literals, which changes a constant and nothing else.
std::string bodyOf(const Req &R, const std::vector<std::string> &Base,
                   const std::vector<std::vector<std::pair<size_t, size_t>>>
                       &Lits) {
  const std::string &Src = Base[R.Routine];
  if (R.Edit == 0)
    return Src;
  const auto &L = Lits[R.Routine][R.Edit % Lits[R.Routine].size()];
  return Src.substr(0, L.second) + strprintf("0%07u", R.Edit) +
         Src.substr(L.second);
}

std::string compileDoc(uint64_t Id, const std::string &Source) {
  JSONWriter W;
  W.beginObject();
  W.key("v").value(uint64_t(1));
  W.key("cmd").value("compile");
  W.key("requests").beginArray();
  W.beginObject();
  W.key("id").value(strprintf("r%llu", (unsigned long long)Id));
  W.key("lang").value("fortran");
  W.key("source").value(Source);
  W.endObject();
  W.endArray();
  W.endObject();
  return W.take();
}

/// What a response says about itself, read without a full parse so the
/// clients stay cheap: whether it failed, whether it was a cache hit, and
/// a digest of everything a hit must reproduce byte for byte (the
/// function's ILOC, stats and remarks; not the id, trace id, cached flag
/// or cache counters).
struct ResponseInfo {
  bool Ok = false;
  bool Hit = false;
  uint64_t Payload = 0;
};

ResponseInfo inspect(const std::string &Resp) {
  ResponseInfo I;
  size_t From = Resp.find("\"cached\":");
  size_t To = Resp.rfind(",\"cache\":{");
  if (Resp.find("\"ok\":false") != std::string::npos ||
      From == std::string::npos || To == std::string::npos || To < From)
    return I;
  I.Ok = true;
  I.Hit = Resp.compare(From, 13, "\"cached\":true") == 0;
  size_t Iloc = Resp.find("\"iloc\":", From);
  if (Iloc == std::string::npos || Iloc > To)
    return ResponseInfo();
  I.Payload = hashString(std::string_view(Resp).substr(Iloc, To - Iloc));
  return I;
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool roundTrip(int Fd, const std::string &Doc, std::string &Resp) {
  return writeFrame(Fd, Doc) && readFrame(Fd, Resp) == FrameStatus::Ok;
}

/// Mean (sum / count) of a histogram in a `metrics` response, in ns.
struct HistSums {
  uint64_t Count = 0, Sum = 0;
};
bool readHist(const std::string &Metrics, const char *Name, HistSums &H) {
  JSONValue V;
  if (!parseJSON(Metrics, V))
    return false;
  const JSONValue *Hists = V.get("histograms");
  const JSONValue *One = Hists ? Hists->get(Name) : nullptr;
  if (!One)
    return false;
  H.Count = One->getU64("count");
  H.Sum = One->getU64("sum");
  return true;
}

/// The daemon and everything set-up produced.
struct ServeSetup {
  std::string Socket;
  std::unique_ptr<ServeDaemon> Daemon;
  std::thread Runner;
  std::vector<std::string> Base;
  std::vector<std::vector<std::pair<size_t, size_t>>> Lits;
  std::vector<Req> Trace;
  uint64_t DynOps = 0, Insts = 0;

  ServeSetup() = default;
  ServeSetup(const ServeSetup &) = delete;
  ServeSetup &operator=(const ServeSetup &) = delete;
  ~ServeSetup() { stop(); }

  void stop() {
    if (Daemon)
      Daemon->requestStop();
    if (Runner.joinable())
      Runner.join();
    Daemon.reset();
  }
};

ServiceConfig serviceConfig() {
  ServiceConfig C;
  C.CacheBytes = CacheBytes;
  C.Workers = 1;
  return C;
}

/// Generates the request sequence: repeats draw from the last
/// RecentWindow distinct bodies; every other request is a new edit of a
/// routine that has a real literal to edit.
std::vector<Req> generateTrace(uint64_t Seed, const ServeSetup &S) {
  Rng G(Seed);
  std::vector<uint32_t> Editable;
  for (uint32_t I = 0; I < S.Lits.size(); ++I)
    if (!S.Lits[I].empty())
      Editable.push_back(I);
  std::deque<Req> Recent;
  for (size_t I = 0; I < RecentWindow; ++I)
    Recent.push_back({uint32_t(G.below(S.Base.size())), 0});
  std::vector<Req> T;
  T.reserve(TraceLength);
  uint32_t Edits = 0;
  while (T.size() < TraceLength) {
    if (G.below(100) < RepeatPercent) {
      T.push_back(Recent[size_t(G.below(Recent.size()))]);
      continue;
    }
    Req R{Editable[size_t(G.below(Editable.size()))], ++Edits};
    T.push_back(R);
    Recent.push_back(R);
    Recent.pop_front();
  }
  return T;
}

/// Starts the daemon, sends every suite routine once (which warms the
/// cache), and checks each served function by running it against the
/// unoptimized reference.
void setUp(ServeSetup &S, const RunOptions &O, unsigned Rep, Result &R) {
  S.Socket = strprintf("%s/perfbench-%d-%u.sock", O.WorkDir.c_str(),
                       int(::getpid()), Rep);
  ServerConfig C;
  C.SocketPath = S.Socket;
  C.StatsFlushSeconds = 0;
  C.Service = serviceConfig();
  S.Daemon = std::make_unique<ServeDaemon>(C);
  std::string Err;
  if (!S.Daemon->start(&Err)) {
    R.fail("daemon: " + Err);
    S.Daemon.reset();
    return;
  }
  S.Runner = std::thread([&S] { S.Daemon->run(); });

  const std::vector<Routine> &Suite = benchmarkSuite();
  S.Base.clear();
  S.Lits.clear();
  for (const Routine &Rt : Suite) {
    S.Base.push_back(Rt.Source);
    S.Lits.push_back(realLiterals(Rt.Source));
  }
  S.Trace = generateTrace(O.Seed, S);

  int Fd = connectTo(S.Socket);
  if (Fd < 0) {
    R.fail("cannot connect to " + S.Socket);
    return;
  }
  S.DynOps = S.Insts = 0;
  const NamingMode Hashed = NamingMode::Hashed;
  Tracer Off;
  for (size_t I = 0; I < Suite.size(); ++I) {
    std::string Resp;
    if (!roundTrip(Fd, compileDoc(I, Suite[I].Source), Resp)) {
      R.fail("warm-up request failed for " + Suite[I].Name);
      break;
    }
    // The served code must behave like the unoptimized routine.
    CompileJob J = makeSuiteJob(Suite[I], OptLevel::Distribution, &Hashed);
    JSONValue V;
    const JSONValue *Rs = parseJSON(Resp, V) ? V.get("responses") : nullptr;
    std::string Iloc = Rs && Rs->isArray() && !Rs->Arr.empty()
                           ? Rs->Arr[0].getString("iloc")
                           : "";
    CompileOut C;
    ParseResult P = parseModule(Iloc);
    C.M = std::move(P.M);
    C.F = C.M ? C.M->find(J.Name) : nullptr;
    if (!C.F) {
      R.fail("warm-up response for " + J.Name + " holds no function");
      continue;
    }
    C.Text = Iloc;
    uint64_t Ops = 0;
    std::string Bad = checkCompiled(J, C, Off, Ops);
    if (!Bad.empty())
      R.fail("served " + J.Name + ": " + Bad);
    S.DynOps += Ops;
    S.Insts += C.F->staticOperationCount();
  }
  ::close(Fd);
}

/// One client's record of one request.
struct Sample {
  uint32_t Index = 0;
  uint64_t Ns = 0;
  bool Traced = false;
  ResponseInfo Info;
};

std::string metricsOf(const std::string &Socket) {
  int Fd = connectTo(Socket);
  std::string Resp;
  if (Fd >= 0) {
    if (!roundTrip(Fd, "{\"v\":1,\"cmd\":\"metrics\"}", Resp))
      Resp.clear();
    ::close(Fd);
  }
  return Resp;
}

} // namespace

void perfbench::runServe(const RunOptions &O, Result &R) {
  ServeSetup S;
  std::vector<double> Setup;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    S.stop();
    uint64_t T0 = nowNs();
    setUp(S, O, I, R);
    Setup.push_back(double(nowNs() - T0) / 1e9);
    if (!R.Problems.empty())
      return;
  }
  uint64_t Digest = hashString("serve");
  for (size_t I = 0; I < 100000; ++I)
    Digest = hashCombine(Digest, S.Trace[I].key());
  R.InputsDigest = Digest;
  CountLog Log;
  Log.add(S.DynOps);
  Log.add(S.Insts);
  R.CountsDigest = Log.digest();

  ResultCache &Cache = S.Daemon->service().cache();
  const uint64_t Hits0 = Cache.hits(), Misses0 = Cache.misses(),
                 Ins0 = Cache.insertions(), Ev0 = Cache.evictions();
  std::string Metrics0 = metricsOf(S.Socket);

  // The socket loop: the whole run untraced, half of it when traced.
  const double SocketSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::atomic<size_t> Next{0};
  std::vector<std::vector<Sample>> Samples(2);
  std::vector<Tracer> Tracers(2);
  std::atomic<unsigned> ClientErrors{0};
  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + uint64_t(SocketSeconds * 1e9);
  auto Client = [&](unsigned C) {
    int Fd = connectTo(S.Socket);
    if (Fd < 0) {
      ++ClientErrors;
      return;
    }
    Tracer &T = Tracers[C];
    std::string Resp;
    while (true) {
      uint64_t Now = nowNs();
      size_t K = Next.fetch_add(1);
      if (Now >= Deadline || K >= S.Trace.size())
        break;
      std::string Doc = compileDoc(K, bodyOf(S.Trace[K], S.Base, S.Lits));
      Sample Smp;
      Smp.Index = uint32_t(K);
      Smp.Traced = O.Trace && ((Now - Start) / SliceNs) % 2 == 1;
      T.setOn(Smp.Traced);
      T.setOp(uint32_t(K));
      int Span = T.begin("serve.request");
      uint64_t T0 = nowNs();
      bool Ok = roundTrip(Fd, Doc, Resp);
      Smp.Ns = nowNs() - T0;
      if (Ok)
        Smp.Info = inspect(Resp);
      T.end(Span, Smp.Info.Hit);
      Samples[C].push_back(Smp);
      if (!Ok)
        break;
    }
    ::close(Fd);
  };
  std::thread C0(Client, 0), C1(Client, 1);
  C0.join();
  C1.join();
  const double Elapsed = double(nowNs() - Start) / 1e9;
  std::string Metrics1 = metricsOf(S.Socket);
  const uint64_t Hits = Cache.hits() - Hits0, Misses = Cache.misses() - Misses0,
                 Ins = Cache.insertions() - Ins0, Ev = Cache.evictions() - Ev0;
  S.stop();
  if (ClientErrors)
    R.fail("a client could not connect");

  // Every response must succeed, and every response for one body must
  // carry the same payload as the first one received for it.
  std::vector<Sample> All;
  for (auto &V : Samples)
    All.insert(All.end(), V.begin(), V.end());
  std::map<uint64_t, uint64_t> FirstPayload;
  const size_t Classes = 2 * S.Base.size();
  BestTimes Best[2] = {BestTimes(Classes), BestTimes(Classes)};
  std::vector<uint64_t> Count[2] = {std::vector<uint64_t>(Classes),
                                    std::vector<uint64_t>(Classes)};
  for (const Sample &Smp : All) {
    ++R.Attempted;
    const Req &Rq = S.Trace[Smp.Index];
    bool Bad = !Smp.Info.Ok;
    if (!Bad) {
      auto [It, New] = FirstPayload.emplace(Rq.key(), Smp.Info.Payload);
      Bad = !New && It->second != Smp.Info.Payload;
      if (Bad)
        R.fail(strprintf("request %u: response differs from the first one "
                         "for the same body",
                         Smp.Index));
    } else {
      R.fail(strprintf("request %u: error response", Smp.Index));
    }
    if (Bad) {
      ++R.Failed;
      continue;
    }
    size_t Class = 2 * Rq.Routine + Smp.Info.Hit;
    Best[Smp.Traced].add(Class, Smp.Ns);
    ++Count[Smp.Traced][Class];
  }
  if (All.empty())
    R.fail("no request completed");

  // Each request counts at its class's best round trip. Two connections in
  // a closed loop complete 2 / (mean round trip) requests per second.
  auto Mix = [&](int Side, int OnlyHit) {
    std::vector<uint64_t> V;
    for (size_t C = 0; C < Classes; ++C)
      if (OnlyHit < 0 || int(C % 2) == OnlyHit)
        V.insert(V.end(), Count[Side][C], Best[Side].best()[C]);
    return V;
  };
  auto MeanNs = [](const std::vector<uint64_t> &V) {
    double Sum = 0;
    for (uint64_t X : V)
      Sum += double(X);
    return V.empty() ? 0.0 : Sum / double(V.size());
  };
  auto Rate = [&](int Side) {
    double M = MeanNs(Mix(Side, -1));
    return M > 0 ? 2e9 / M : 0.0;
  };
  const double HitRatio =
      Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
  if (!O.Trace) {
    LatencySummary L = summarize(Mix(0, -1));
    R.set("setup_s", medianOf(Setup), "s");
    R.set("latency_ms_p50", L.P50Ms, "ms");
    R.set("latency_ms_tail", L.TailMs, "ms");
    R.set("work_per_s", Rate(0), "1/s");
    R.set("dyn_ops", double(S.DynOps), "count");
    R.set("code_insts", double(S.Insts), "count");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.Notes.push_back(strprintf(
        "request latency over %zu requests, each at the best round trip of "
        "its (routine, hit/miss) class: p50 %.4f ms, tail p%.2f %.4f ms; "
        "%.1f requests/s at 2 connections (%.1f measured); cache hit ratio "
        "%.3f, %llu evictions",
        L.Samples, L.P50Ms, L.TailPct, L.TailMs, Rate(0),
        double(L.Samples) / Elapsed, HitRatio, (unsigned long long)Ev));
    return;
  }

  reportLayers(Tracer(), 0, R);
  R.Metrics["serve.rtt_hit_us"].Value = MeanNs(Mix(0, 1)) / 1e3;
  R.Metrics["serve.rtt_miss_us"].Value = MeanNs(Mix(0, 0)) / 1e3;
  double Requests = double(All.size());
  R.Metrics["cache.hit_ratio"].Value = HitRatio;
  R.Metrics["cache.insertions"].Value = double(Ins) / Requests;
  R.Metrics["cache.evictions"].Value = double(Ev) / Requests;
  const std::pair<const char *, const char *> Phases[] = {
      {"admit_ns", "serve.admit_us"},
      {"compile_ns", "serve.compile_us"},
      {"respond_ns", "serve.respond_us"}};
  for (const auto &[Hist, Metric] : Phases) {
    HistSums A, B;
    if (!readHist(Metrics0, Hist, A) || !readHist(Metrics1, Hist, B) ||
        B.Count <= A.Count) {
      R.fail(std::string("metrics verb lacks ") + Hist);
      continue;
    }
    R.Metrics[Metric].Value =
        double(B.Sum - A.Sum) / double(B.Count - A.Count) / 1e3;
  }
  if (Rate(0) > 0 && Rate(1) > 0)
    R.Metrics["trace.overhead_pct"].Value = (Rate(0) / Rate(1) - 1) * 100;

  // The same sequence through CompileService::handle in-process: the
  // service warmed like the daemon, then the requests in order. Each hit
  // class's socket share is its best round trip minus its best handle
  // time, weighted by the socket loop's request mix.
  CompileService Svc(serviceConfig());
  for (const Routine &Rt : benchmarkSuite())
    Svc.handle(compileDoc(0, Rt.Source));
  Tracer &T = Tracers[0];
  T.setOn(true);
  BestTimes Handle(Classes);
  std::vector<uint64_t> HandleCount(Classes);
  const uint64_t HDeadline = nowNs() + uint64_t(O.Seconds / 2 * 1e9);
  for (size_t K = 0; K < All.size() && nowNs() < HDeadline; ++K) {
    std::string Doc = compileDoc(K, bodyOf(S.Trace[K], S.Base, S.Lits));
    T.setOp(uint32_t(K));
    int Span = T.begin("serve.handle");
    uint64_t T0 = nowNs();
    std::string Resp = Svc.handle(Doc);
    uint64_t Ns = nowNs() - T0;
    ResponseInfo Info = inspect(Resp);
    T.end(Span, Info.Hit);
    size_t Class = 2 * S.Trace[K].Routine + Info.Hit;
    Handle.add(Class, Ns);
    ++HandleCount[Class];
  }
  double HandleNs[2] = {0, 0}, HandleN[2] = {0, 0}, SocketNs = 0, SocketN = 0;
  for (size_t C = 0; C < Classes; ++C) {
    uint64_t H = Handle.best()[C];
    if (!H)
      continue;
    HandleNs[C % 2] += double(HandleCount[C]) * double(H);
    HandleN[C % 2] += double(HandleCount[C]);
    if (C % 2 == 1 && Best[0].best()[C]) {
      SocketNs += double(Count[0][C]) * (double(Best[0].best()[C]) - double(H));
      SocketN += double(Count[0][C]);
    }
  }
  for (int Hit = 0; Hit < 2; ++Hit)
    R.Metrics[Hit ? "serve.handle_hit_us" : "serve.handle_miss_us"].Value =
        HandleN[Hit] ? HandleNs[Hit] / HandleN[Hit] / 1e3 : 0;
  R.Metrics["serve.socket_us"].Value = SocketN ? SocketNs / SocketN / 1e3 : 0;
  R.Notes.push_back(strprintf(
      "tracing overhead: %.1f untraced vs %.1f traced requests/s (%.2f%%); "
      "%.0f hit / %.0f miss handle replays",
      Rate(0), Rate(1), R.Metrics["trace.overhead_pct"].Value, HandleN[1],
      HandleN[0]));
  Tracers[0].append(Tracers[1]);
  writeTrace(Tracers[0], O, R);
}
