//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "interp/Predecode.h"
#include "pipeline/Pipeline.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sys/resource.h>

using namespace perfbench;
using namespace epre;

void Result::fail(std::string Why) {
  // Keep the report short: the first few problems say what went wrong.
  if (Problems.size() < 20)
    Problems.push_back(std::move(Why));
}

LatencySummary perfbench::summarize(std::vector<uint64_t> Ns) {
  LatencySummary S;
  S.Samples = Ns.size();
  if (Ns.empty())
    return S;
  std::sort(Ns.begin(), Ns.end());
  size_t N = Ns.size();
  S.P50Ms = (N % 2 ? double(Ns[N / 2])
                   : (double(Ns[N / 2 - 1]) + double(Ns[N / 2])) / 2) /
            1e6;
  // The sample at rank N-11 has exactly ten samples above it.
  size_t K = N > 10 ? N - 11 : 0;
  S.TailMs = double(Ns[K]) / 1e6;
  S.TailPct = 100.0 * double(K + 1) / double(N);
  return S;
}

double BestTimes::rate(const std::vector<uint64_t> &Work) const {
  double W = 0, T = 0;
  for (size_t C = 0; C < Ns.size(); ++C)
    if (Ns[C]) {
      W += double(Work[C]);
      T += double(Ns[C]);
    }
  return T > 0 ? W * 1e9 / T : 0;
}

std::vector<uint64_t> perfbench::nonZero(const std::vector<uint64_t> &V) {
  std::vector<uint64_t> Out;
  for (uint64_t X : V)
    if (X)
      Out.push_back(X);
  return Out;
}

double perfbench::medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Outcome perfbench::outcomeOf(const ExecResult &E, MemoryImage &&Mem) {
  Outcome O;
  O.Kind = E.Trapped ? E.Kind : TrapKind::None;
  O.HasReturn = E.HasReturn;
  O.Ret = E.ReturnValue;
  O.MemHash = Mem.hash();
  O.DynOps = E.DynOps;
  O.Mem = std::move(Mem.Bytes);
  return O;
}

static bool closeF64(double A, double B) {
  if (A == B || (std::isnan(A) && std::isnan(B)))
    return true;
  if (!std::isfinite(A) || !std::isfinite(B))
    return false;
  return std::fabs(A - B) <= 1e-6 * std::max(std::fabs(A), std::fabs(B));
}

std::string perfbench::compareOutcome(const Outcome &Ref, const Outcome &Got,
                                      bool FPLoose) {
  if (Ref.Kind != Got.Kind)
    return strprintf("trap kind %s, reference %s", trapKindName(Got.Kind),
                     trapKindName(Ref.Kind));
  if (Ref.HasReturn != Got.HasReturn)
    return "return presence differs from the reference";
  if (Ref.HasReturn) {
    const RtValue &A = Ref.Ret, &B = Got.Ret;
    bool Same = A.Ty == B.Ty &&
                (A.isI() ? A.I == B.I
                         : (FPLoose ? closeF64(A.F, B.F) : A.identical(B)));
    if (!Same)
      return strprintf("returned %s, reference %s",
                       B.isI() ? std::to_string(B.I).c_str()
                               : strprintf("%.17g", B.F).c_str(),
                       A.isI() ? std::to_string(A.I).c_str()
                               : strprintf("%.17g", A.F).c_str());
  }
  if (Ref.MemHash == Got.MemHash)
    return "";
  // Reassociated F64 arithmetic may round differently: compare the images
  // word by word, each differing word read as a double.
  if (!FPLoose || Ref.Mem.size() != Got.Mem.size())
    return "memory image differs from the reference";
  for (size_t Off = 0; Off + 8 <= Ref.Mem.size(); Off += 8) {
    double A, B;
    std::memcpy(&A, &Ref.Mem[Off], 8);
    std::memcpy(&B, &Got.Mem[Off], 8);
    if (std::memcmp(&A, &B, 8) != 0 && !closeF64(A, B))
      return strprintf("memory word at %zu differs from the reference", Off);
  }
  return "";
}

ExecResult perfbench::execute(const Function &F, const ExecInput &In,
                              MemoryImage &Mem, Tracer &T,
                              ProfileCollector *Prof) {
  Mem.Bytes.assign(In.Image.begin(), In.Image.end());
  if (T.on()) {
    // interpret() predecodes internally; predecoding once more beside it
    // is the only way to see that step's share from outside the program.
    thread_local Predecoder PD;
    thread_local Arena A;
    BytecodeFunction BF;
    int P = T.begin("interp.predecode");
    A.reset();
    PD.predecode(F, A, BF);
    T.end(P);
  }
  int S = T.begin(Prof ? "interp.run.profiled" : "interp.run");
  ExecResult E = interpret(F, In.Args, Mem, ExecLimits(), Prof);
  T.end(S, E.DynOps);
  return E;
}

void perfbench::checkAcrossRuns(const RunOptions &O, Result &R) {
  if (O.StateDir.empty())
    return;
  std::string Path = strprintf("%s/%s-%llu.digest", O.StateDir.c_str(),
                               O.Workload.c_str(),
                               (unsigned long long)O.Seed);
  std::string Mine = strprintf("inputs %016llx counts %016llx",
                               (unsigned long long)R.InputsDigest,
                               (unsigned long long)R.CountsDigest);
  std::ifstream In(Path);
  std::string Earlier;
  if (In && std::getline(In, Earlier)) {
    if (Earlier != Mine)
      R.fail("inputs or counts differ from an earlier run of this seed: " +
             Earlier + " vs " + Mine);
    return;
  }
  std::ofstream Out(Path);
  Out << Mine << "\n";
}

void perfbench::writeTrace(const Tracer &T, const RunOptions &O, Result &R) {
  if (O.TraceDir.empty())
    return;
  std::string Path = strprintf("%s/%s-%llu.trace.json", O.TraceDir.c_str(),
                               O.Workload.c_str(), (unsigned long long)O.Seed);
  if (T.writeChromeTrace(Path))
    R.Notes.push_back("spans written to " + Path);
  else
    R.fail("cannot write " + Path);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

namespace {

/// The passes whose applications the traced run reports one by one.
const char *const TracedPasses[] = {
    "ssa.build", "ssa.destroy", "fwdprop",  "negnorm",     "reassoc",
    "gvn",       "pre",         "localize", "sccp",        "peephole",
    "dce",       "coalesce",    "simplifycfg", "unreachable-elim"};

/// Counters read from the returned PipelineStats (pass, counter).
const char *const PassCounters[][2] = {
    {"pre", "universe"},          {"pre", "avail_iterations"},
    {"pre", "ant_iterations"},    {"pre", "inserted"},
    {"pre", "deleted"},           {"pre", "speculated"},
    {"fwdprop", "trees_cloned"},  {"coalesce", "copies_removed"},
    {"dce", "removed"},           {"gvn", "redundancies_found"}};

std::vector<std::pair<std::string, const char *>> buildPerLayer() {
  std::vector<std::pair<std::string, const char *>> L = {
      {"frontend.lower_ms", "ms"},    {"ir.parse_ms", "ms"},
      {"ir.verify_ms", "ms"},         {"ir.print_ms", "ms"},
      {"pipeline.optimize_ms", "ms"}, {"pipeline.growth", "ratio"}};
  for (const char *P : TracedPasses) {
    L.push_back({std::string("pass.") + P + ".self_ms", "ms"});
    L.push_back({std::string("pass.") + P + ".calls", "count"});
    L.push_back({std::string("pass.") + P + ".insts_after", "count"});
  }
  for (const auto &C : PassCounters)
    L.push_back({std::string(C[0]) + "." + C[1], "count"});
  for (const char *N :
       {"interp.predecode_us", "interp.run_us"})
    L.push_back({N, "us"});
  L.push_back({"interp.ops_per_s", "1/s"});
  L.push_back({"interp.profiled_ops_per_s", "1/s"});
  for (const char *N : {"serve.rtt_hit_us", "serve.rtt_miss_us",
                        "serve.handle_hit_us", "serve.handle_miss_us",
                        "serve.socket_us"})
    L.push_back({N, "us"});
  L.push_back({"cache.hit_ratio", "ratio"});
  L.push_back({"cache.insertions", "count/req"});
  L.push_back({"cache.evictions", "count/req"});
  for (const char *N : {"serve.admit_us", "serve.compile_us", "serve.respond_us"})
    L.push_back({N, "us"});
  L.push_back({"trace.overhead_pct", "%"});
  return L;
}

const std::vector<std::pair<std::string, const char *>> &perLayer() {
  static const auto L = buildPerLayer();
  return L;
}

} // namespace

const std::vector<std::string> &perfbench::perLayerMetricNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const auto &[Name, Unit] : perLayer())
      N.push_back(Name);
    return N;
  }();
  return Names;
}

void perfbench::reportLayers(const Tracer &T, uint64_t Ops, Result &R) {
  for (const auto &[Name, Unit] : perLayer())
    R.set(Name, 0, Unit);
  if (!Ops)
    return;
  auto Layers = T.layers();
  auto Get = [&](const std::string &N) -> Tracer::Layer {
    auto It = Layers.find(N);
    return It == Layers.end() ? Tracer::Layer() : It->second;
  };
  double PerOpMs = 1e6 * double(Ops);
  auto SelfMs = [&](const char *Span, const char *Metric) {
    R.Metrics[Metric].Value = double(Get(Span).SelfNs) / PerOpMs;
  };
  SelfMs("frontend.lower", "frontend.lower_ms");
  SelfMs("ir.parse", "ir.parse_ms");
  SelfMs("ir.verify", "ir.verify_ms");
  SelfMs("ir.print", "ir.print_ms");
  R.Metrics["pipeline.optimize_ms"].Value =
      double(Get("pipeline.optimize").TotalNs) / PerOpMs;
  for (const char *P : TracedPasses) {
    Tracer::Layer L = Get(std::string("pass.") + P);
    std::string Base = std::string("pass.") + P;
    R.Metrics[Base + ".self_ms"].Value = double(L.SelfNs) / PerOpMs;
    R.Metrics[Base + ".calls"].Value = double(L.Spans) / double(Ops);
    R.Metrics[Base + ".insts_after"].Value =
        L.Spans ? double(L.CountSum) / double(L.Spans) : 0;
  }
  Tracer::Layer Pre = Get("interp.predecode"), Run = Get("interp.run"),
                Prof = Get("interp.run.profiled");
  if (Pre.Spans)
    R.Metrics["interp.predecode_us"].Value =
        double(Pre.TotalNs) / 1e3 / double(Pre.Spans);
  if (Run.Spans) {
    R.Metrics["interp.run_us"].Value =
        double(Run.TotalNs) / 1e3 / double(Run.Spans);
    R.Metrics["interp.ops_per_s"].Value =
        double(Run.CountSum) * 1e9 / double(Run.TotalNs);
  }
  if (Prof.Spans)
    R.Metrics["interp.profiled_ops_per_s"].Value =
        double(Prof.CountSum) * 1e9 / double(Prof.TotalNs);
}

std::vector<uint64_t> perfbench::passCounters(const PipelineStats &S) {
  std::vector<uint64_t> V;
  for (const auto &C : PassCounters)
    V.push_back(std::strcmp(C[0], "gvn") == 0 ? S.gvnRedundanciesFound()
                                              : S.get(C[0], C[1]));
  return V;
}

void perfbench::reportPassCounters(const std::vector<uint64_t> &Totals,
                                   Result &R) {
  for (size_t I = 0; I < Totals.size(); ++I)
    R.Metrics[std::string(PassCounters[I][0]) + "." + PassCounters[I][1]]
        .Value = double(Totals[I]);
}
