//===- serve/Service.cpp --------------------------------------------------===//

#include "serve/Service.h"

#include "frontend/Lower.h"
#include "instrument/JSONWriter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Hash.h"

#include <map>
#include <set>

using namespace epre;

namespace {

/// Per-function outcome slot inside one request.
struct FnSlot {
  std::string Name;
  bool Cached = false;     ///< answered from the ResultCache
  CachedFunction Result;   ///< filled for both hits and fresh compiles
};

/// Per-request working state.
struct ReqState {
  std::string Error;            ///< non-empty = failed request
  std::string ErrorClass;       ///< "parse" / "frontend" / "verifier"
  std::unique_ptr<Module> M;    ///< parsed/lowered input (misses mutate it)
  std::vector<FnSlot> Fns;      ///< one slot per function, module order
};

/// One deduplicated cache miss: the first Function carrying this key, plus
/// every (request, function) slot waiting for its result.
struct Miss {
  uint64_t IRHash = 0;
  Function *F = nullptr;                 ///< owned by its request's module
  std::unique_ptr<Function> *Owner = nullptr; ///< slot to steal F from
  std::vector<std::pair<size_t, size_t>> Users; ///< (ReqIdx, FnIdx)
};

void writeCacheCounters(JSONWriter &W, const ResultCache &C) {
  W.beginObject();
  W.key("hits").value(C.hits());
  W.key("misses").value(C.misses());
  W.key("insertions").value(C.insertions());
  W.key("evictions").value(C.evictions());
  W.key("bytes").value(uint64_t(C.bytes()));
  W.key("entries").value(uint64_t(C.entries()));
  W.endObject();
}

void writeTraceId(JSONWriter &W, uint64_t TraceId) {
  W.key("trace_id").value(ServeTelemetry::traceIdHex(TraceId));
}

std::string errorResponse(const std::string &Msg, uint64_t TraceId) {
  JSONWriter W;
  W.beginObject();
  W.key("v").value(uint64_t(1));
  W.key("ok").value(false);
  W.key("error").value(Msg);
  writeTraceId(W, TraceId);
  W.endObject();
  return W.take();
}

/// Renders one function's remarks (already filtered to it) as a JSON array.
std::string remarksJSONFor(const std::vector<Remark> &All,
                           const std::string &FnName) {
  RemarkCollector C;
  for (const Remark &R : All)
    if (R.Function == FnName)
      C.emit(R);
  return C.toJSON();
}

/// RAII span: opens a slice in \p T's tree, closes on scope exit, and adds
/// the elapsed nanoseconds to \p AccumNs when one is given.
class Span {
public:
  Span(RequestTrack &T, std::string_view Name, uint64_t *AccumNs = nullptr)
      : T(T), AccumNs(AccumNs), StartNs(TimerTree::nowNs()) {
    T.Spans.open(Name);
  }
  ~Span() {
    T.Spans.close();
    if (AccumNs)
      *AccumNs += TimerTree::nowNs() - StartNs;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  RequestTrack &T;
  uint64_t *AccumNs;
  uint64_t StartNs;
};

} // namespace

std::string CompileService::handle(const std::string &RequestJSON,
                                   const RequestInfo &Info) {
  RequestTrack T;
  T.TraceId = Tel.beginRequest();
  T.CollectSpans = Tel.collectSpans();
  T.Spans.setLane(Info.ConnId);
  const uint64_t StartNs = TimerTree::nowNs();
  std::string Resp;
  {
    Span Request(T, "request");
    ServeRequest R;
    std::string Err;
    bool ParseOk;
    {
      Span Parse(T, "parse");
      ParseOk = parseServeRequest(RequestJSON, R, &Err);
    }
    if (!ParseOk) {
      T.Cmd = "invalid";
      T.ErrorClass = "protocol";
      Resp = errorResponse(Err, T.TraceId);
    } else {
      Resp = dispatch(R, T);
    }
  }
  Tel.endRequest(T, Info, StartNs, TimerTree::nowNs() - StartNs);
  return Resp;
}

std::string CompileService::dispatch(const ServeRequest &R, RequestTrack &T) {
  switch (R.Cmd) {
  case ServeRequest::Command::Compile:
    T.Cmd = "compile";
    return compile(R, T);
  case ServeRequest::Command::Ping: {
    T.Cmd = "ping";
    JSONWriter W;
    W.beginObject();
    W.key("v").value(uint64_t(1));
    W.key("ok").value(true);
    W.key("pong").value(true);
    writeTraceId(W, T.TraceId);
    W.endObject();
    return W.take();
  }
  case ServeRequest::Command::Stats: {
    T.Cmd = "stats";
    JSONWriter W;
    W.beginObject();
    W.key("v").value(uint64_t(1));
    W.key("ok").value(true);
    W.key("cache");
    writeCacheCounters(W, Cache);
    writeTraceId(W, T.TraceId);
    W.endObject();
    return W.take();
  }
  case ServeRequest::Command::Metrics: {
    T.Cmd = "metrics";
    JSONWriter W;
    W.beginObject();
    W.key("v").value(uint64_t(1));
    W.key("ok").value(true);
    writeMetricsBody(W);
    writeTraceId(W, T.TraceId);
    W.endObject();
    return W.take();
  }
  case ServeRequest::Command::Shutdown: {
    T.Cmd = "shutdown";
    JSONWriter W;
    W.beginObject();
    W.key("v").value(uint64_t(1));
    W.key("ok").value(true);
    W.key("shutting_down").value(true);
    writeTraceId(W, T.TraceId);
    W.endObject();
    Shutdown.store(true, std::memory_order_release);
    return W.take();
  }
  }
  return errorResponse("unreachable", T.TraceId);
}

std::string CompileService::compile(const ServeRequest &R, RequestTrack &T) {
  const uint64_t OptionsFP = optionsFingerprint(R.Options);
  std::vector<ReqState> States(R.Requests.size());
  T.Batch = unsigned(R.Requests.size());

  // Stage 1: admit — parse, verify, hash, and answer hits from the cache.
  // Misses dedupe on the cache key: a duplicate-heavy batch compiles each
  // distinct body exactly once.
  std::map<uint64_t, Miss> Misses; // IRHash -> miss (one options FP per batch)
  {
    Span Admit(T, "admit", &T.AdmitNs);
    for (size_t RI = 0; RI < R.Requests.size(); ++RI) {
      const CompileRequest &CR = R.Requests[RI];
      ReqState &St = States[RI];
      if (CR.Lang == CompileRequest::Language::ILOC) {
        ParseResult P = parseModule(CR.Source);
        if (!P.ok()) {
          St.Error = "parse error: " + P.Error;
          St.ErrorClass = "parse";
          continue;
        }
        St.M = std::move(P.M);
      } else {
        NamingMode Mode = R.Options.Naming == InputNaming::Hashed
                              ? NamingMode::Hashed
                              : NamingMode::Naive;
        LowerResult L = compileMiniFortran(CR.Source, Mode);
        if (!L.ok()) {
          St.Error = "frontend error: " + L.Error;
          St.ErrorClass = "frontend";
          continue;
        }
        St.M = std::move(L.M);
      }

      // Reject broken input up front — the in-pipeline verifier is off so a
      // malformed request can never abort the daemon.
      std::vector<std::string> Violations = verifyModule(*St.M);
      if (!Violations.empty()) {
        St.Error = "verifier: " + Violations.front();
        St.ErrorClass = "verifier";
        continue;
      }

      for (size_t FI = 0; FI < St.M->Functions.size(); ++FI) {
        Function &F = *St.M->Functions[FI];
        FnSlot Slot;
        Slot.Name = F.name();
        uint64_t IRHash = hashString(printFunction(F));
        uint64_t LookupStart = TimerTree::nowNs();
        bool Hit = Cache.lookup(IRHash, OptionsFP, Slot.Result);
        T.CacheNs += TimerTree::nowNs() - LookupStart;
        if (Hit) {
          Slot.Cached = true;
          ++T.Hits;
        } else {
          Miss &M = Misses[IRHash];
          if (!M.F) {
            M.IRHash = IRHash;
            M.F = &F;
            M.Owner = &St.M->Functions[FI];
          }
          M.Users.emplace_back(RI, FI);
          ++T.Misses;
        }
        ++T.Functions;
        T.Outcomes.push_back({Slot.Name, Slot.Cached});
        St.Fns.push_back(std::move(Slot));
      }
    }
    for (const ReqState &St : States)
      if (!St.Error.empty()) {
        ++T.Errors;
        if (T.ErrorClass == "none")
          T.ErrorClass = St.ErrorClass;
      }
  }

  // Stage 2: compile the deduplicated misses, sharded across the worker
  // pool. Functions are grouped into rounds with pairwise-distinct names:
  // runPipelineParallel merges each function's private remark sink in
  // module order, so within a round the merged stream partitions exactly
  // by function name.
  std::vector<std::vector<Miss *>> Rounds;
  for (auto &[Hash, M] : Misses) {
    (void)Hash;
    bool Placed = false;
    for (auto &Round : Rounds) {
      bool Collides = false;
      for (const Miss *Other : Round)
        if (Other->F->name() == M.F->name()) {
          Collides = true;
          break;
        }
      if (!Collides) {
        Round.push_back(&M);
        Placed = true;
        break;
      }
    }
    if (!Placed)
      Rounds.push_back({&M});
  }

  {
    Span Compile(T, "compile", &T.CompileNs);
    // While the "compile" slice is open, child trees merged under it nest
    // inside the request span in the exported trace.
    int CompileIdx = T.Spans.openIndex();
    for (auto &Round : Rounds) {
      Module Scratch;
      for (Miss *M : Round)
        Scratch.Functions.push_back(std::move(*M->Owner));

      InstrumentationOptions IO;
      IO.CollectRemarks = true;
      // Pass timers are only worth their cost when the daemon is exporting
      // a trace: the per-function trees land nested under this request's
      // compile span.
      IO.TimePasses = T.CollectSpans;
      PassInstrumentation PI(IO);
      PipelineOptions Local = R.Options;
      Local.Instr = &PI;
      std::vector<PipelineStats> Stats =
          runPipelineParallel(Scratch, Local, Cfg.Workers);
      if (T.CollectSpans && !PI.timers().empty() && CompileIdx >= 0)
        T.Spans.mergeUnder(PI.timers(), CompileIdx);

      const std::vector<Remark> &AllRemarks = PI.remarks().remarks();
      for (size_t I = 0; I < Round.size(); ++I) {
        Function &F = *Scratch.Functions[I];
        CachedFunction CF;
        CF.Name = F.name();
        CF.ILOC = printFunction(F);
        CF.StatsJSON = Stats[I].Registry.toJSON();
        CF.RemarksJSON = remarksJSONFor(AllRemarks, CF.Name);
        Cache.insert(Round[I]->IRHash, OptionsFP, CF);
        for (auto [RI, FI] : Round[I]->Users)
          States[RI].Fns[FI].Result = CF;
      }
    }
  }

  // Stage 3: respond, strictly in request order.
  Span Respond(T, "respond", &T.RespondNs);
  JSONWriter W;
  W.beginObject();
  W.key("v").value(uint64_t(1));
  W.key("ok").value(true);
  writeTraceId(W, T.TraceId);
  W.key("responses").beginArray();
  for (size_t RI = 0; RI < R.Requests.size(); ++RI) {
    ReqState &St = States[RI];
    W.beginObject();
    W.key("id").value(R.Requests[RI].Id);
    if (!St.Error.empty()) {
      W.key("ok").value(false);
      W.key("error").value(St.Error);
      W.endObject();
      continue;
    }
    W.key("ok").value(true);
    std::string ModuleILOC;
    W.key("functions").beginArray();
    for (const FnSlot &Slot : St.Fns) {
      W.beginObject();
      W.key("name").value(Slot.Name);
      W.key("cached").value(Slot.Cached);
      W.key("iloc").value(Slot.Result.ILOC);
      W.key("stats").raw(Slot.Result.StatsJSON);
      W.key("remarks").raw(Slot.Result.RemarksJSON);
      W.endObject();
      // Mirror printModule(): each function's text plus a separating
      // newline, so the module field round-trips through parseModule.
      ModuleILOC += Slot.Result.ILOC + "\n";
    }
    W.endArray();
    W.key("iloc").value(ModuleILOC);
    W.endObject();
  }
  W.endArray();
  W.key("cache");
  writeCacheCounters(W, Cache);
  W.endObject();
  return W.take();
}

void CompileService::writeMetricsBody(JSONWriter &W) const {
  W.key("uptime_ns").value(Tel.uptimeNs());
  W.key("inflight").value(int64_t(Tel.inflight()));
  StatsRegistry Reg;
  Cache.exportStats(Reg);
  Tel.exportStats(Reg);
  W.key("counters").raw(Reg.toJSON());
  W.key("histograms");
  Tel.writeHistograms(W);
}

std::string CompileService::metricsJSON() const {
  JSONWriter W;
  W.beginObject();
  W.key("v").value(uint64_t(1));
  writeMetricsBody(W);
  W.endObject();
  return W.take();
}
