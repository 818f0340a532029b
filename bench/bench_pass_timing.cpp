//===- bench/bench_pass_timing.cpp - Compile-time pass scaling ------------===//
///
/// google-benchmark microbenchmarks of the optimizer itself: how long each
/// phase takes as the input function grows. Inputs are generated chains of
/// loop nests so every pass has real work (phis, trees, redundancies).
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Liveness.h"
#include "frontend/Lower.h"
#include "gvn/ValueNumbering.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "opt/Peephole.h"
#include "pipeline/Pipeline.h"
#include "pre/PRE.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

using namespace epre;

namespace {

/// Runs a pass class on \p F with a quiet context, returning the pass
/// object (for lastStats()).
template <typename PassT> PassT runPass(Function &F, PassT P = PassT()) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  P.run(F, Ctx);
  return P;
}

/// Generates a routine with \p NumLoops sequential loop nests, each with
/// array addressing and shared invariant subexpressions.
std::string generateSource(unsigned NumLoops) {
  std::string S = "function gen(a, b, n)\n  integer n\n  real w(64)\n";
  S += "  s = 0.0\n";
  for (unsigned L = 0; L < NumLoops; ++L) {
    S += strprintf("  do i%u = 1, n\n", L);
    S += strprintf("    w(i%u) = (a + b) * i%u + a * %u.0\n", L, L, L + 1);
    S += strprintf("    s = s + w(i%u) + (a + b + %u.0)\n", L, L);
    S += "  end do\n";
  }
  S += "  return s\nend\n";
  return S;
}

std::unique_ptr<Module> compileGen(unsigned NumLoops, NamingMode NM) {
  LowerResult LR = compileMiniFortran(generateSource(NumLoops), NM);
  assert(LR.ok());
  return std::move(LR.M);
}

void BM_Frontend(benchmark::State &State) {
  std::string Src = generateSource(unsigned(State.range(0)));
  for (auto _ : State) {
    LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
    benchmark::DoNotOptimize(LR.M);
  }
}
BENCHMARK(BM_Frontend)->Arg(4)->Arg(16)->Arg(64);

void BM_SSABuild(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    State.ResumeTiming();
    runPass(*M->Functions[0], SSABuildPass());
  }
}
BENCHMARK(BM_SSABuild)->Arg(4)->Arg(16)->Arg(64);

void BM_ForwardProp(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    Function &F = *M->Functions[0];
    runPass(F, SSABuildPass());
    CFG G = CFG::compute(F);
    RankMap Ranks = RankMap::compute(F, G);
    State.ResumeTiming();
    runPass(F, ForwardPropPass(Ranks));
  }
}
BENCHMARK(BM_ForwardProp)->Arg(4)->Arg(16)->Arg(64);

void BM_Reassociate(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    Function &F = *M->Functions[0];
    runPass(F, SSABuildPass());
    CFG G = CFG::compute(F);
    RankMap Ranks = RankMap::compute(F, G);
    runPass(F, ForwardPropPass(Ranks));
    ReassociateOptions RO;
    RO.Distribute = true;
    runPass(F, NegNormPass(Ranks, RO));
    State.ResumeTiming();
    runPass(F, ReassociatePass(Ranks, RO));
  }
}
BENCHMARK(BM_Reassociate)->Arg(4)->Arg(16)->Arg(64);

/// The whole GVN phase (SSA rebuild, AWZ partition, renaming, SSA exit);
/// the "work" counter is GVNPass::lastWork(), the deterministic count the
/// complexity ratchet bounds.
void BM_GVN(benchmark::State &State) {
  uint64_t Work = 0;
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    Function &F = *M->Functions[0];
    runPass(F, SSABuildPass());
    CFG G = CFG::compute(F);
    RankMap Ranks = RankMap::compute(F, G);
    runPass(F, ForwardPropPass(Ranks));
    State.ResumeTiming();
    Work = runPass(F, GVNPass()).lastWork();
  }
  State.counters["work"] = double(Work);
}
BENCHMARK(BM_GVN)->Arg(64)->Arg(128)->Arg(256);

void BM_PRE(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Hashed);
    Function &F = *M->Functions[0];
    State.ResumeTiming();
    runPass(*M->Functions[0], PREPass());
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_PRE)->Arg(4)->Arg(16)->Arg(64);

void BM_FullPipeline(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    State.ResumeTiming();
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    optimizeFunction(*M->Functions[0], PO);
  }
}
BENCHMARK(BM_FullPipeline)->Arg(4)->Arg(16)->Arg(64);

// --- PRE dataflow ----------------------------------------------------------
//
// The input compiles once; each iteration runs analyzePartialRedundancies:
// the universe, the local sets and the AVAIL/ANT fixpoints, without code
// motion. The "work" counter is PREStats::Work, the words the solves
// touched.

void BM_PRESolve(benchmark::State &State) {
  auto M = compileGen(unsigned(State.range(0)), NamingMode::Hashed);
  Function &F = *M->Functions[0];
  uint64_t Work = 0;
  for (auto _ : State) {
    PREDataflow D = analyzePartialRedundancies(F);
    Work = D.Stats.Work;
    benchmark::DoNotOptimize(D.AVOUT.data());
    benchmark::DoNotOptimize(D.ANTIN.data());
  }
  State.counters["work"] = double(Work);
}
BENCHMARK(BM_PRESolve)->Arg(64)->Arg(128)->Arg(256);

void BM_Liveness(benchmark::State &State) {
  auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
  Function &F = *M->Functions[0];
  CFG G = CFG::compute(F);
  for (auto _ : State) {
    Liveness L = Liveness::compute(F, G);
    benchmark::DoNotOptimize(L.work());
  }
}
BENCHMARK(BM_Liveness)->Arg(64)->Arg(128)->Arg(256);

// --- ILOC in, peephole out ---------------------------------------------------

/// parseModule on the printed, unoptimized function of Arg loop nests: the
/// text perfbench's bigfn workload parses.
void BM_ParseModule(benchmark::State &State) {
  auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
  std::string Text = printModule(*M);
  for (auto _ : State) {
    ParseResult R = parseModule(Text);
    benchmark::DoNotOptimize(R.M);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Text.size()));
}
BENCHMARK(BM_ParseModule)->Arg(64)->Arg(256);

/// The first peephole of the distribution pipeline, on the pipeline's own
/// state before it (printed, and parsed again outside the timing). The
/// "work" counter is PeepholePass::lastWork().
void BM_Peephole(benchmark::State &State) {
  auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  auto Traced = compileGen(unsigned(State.range(0)), NamingMode::Naive);
  PassPrefixResult Full =
      optimizeFunctionPrefix(*Traced->Functions[0], PO, ~0u);
  auto First = std::find(Full.Trace.begin(), Full.Trace.end(), "peephole");
  assert(First != Full.Trace.end());
  optimizeFunctionPrefix(*M->Functions[0], PO,
                         unsigned(First - Full.Trace.begin()));
  std::string Text = printModule(*M);
  uint64_t Work = 0;
  for (auto _ : State) {
    State.PauseTiming();
    ParseResult R = parseModule(Text);
    State.ResumeTiming();
    Work = runPass(*R.M->Functions[0], PeepholePass()).lastWork();
  }
  State.counters["work"] = double(Work);
}
BENCHMARK(BM_Peephole)->Arg(64)->Arg(256);

// --- Parallel per-function pipeline driver ---------------------------------

/// A module of \p NumFns independent loop-nest functions of \p LoopsPer
/// loop nests each.
std::unique_ptr<Module> compileMultiFunction(unsigned NumFns,
                                             unsigned LoopsPer = 12) {
  std::string Src;
  for (unsigned I = 0; I < NumFns; ++I) {
    std::string One = generateSource(LoopsPer);
    One.replace(One.find("function gen"), 12,
                "function gen" + std::to_string(I));
    Src += One;
  }
  LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
  assert(LR.ok());
  return std::move(LR.M);
}

void BM_PipelineSerial(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileMultiFunction(unsigned(State.range(0)));
    State.ResumeTiming();
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    optimizeModule(*M, PO);
  }
}
BENCHMARK(BM_PipelineSerial)->Arg(8)->Arg(16);

void BM_PipelineParallel(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileMultiFunction(unsigned(State.range(0)));
    State.ResumeTiming();
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    runPipelineParallel(*M, PO, 4);
  }
}
BENCHMARK(BM_PipelineParallel)->Arg(8)->Arg(16)->UseRealTime();

// --- End-to-end pipeline cost ----------------------------------------------
//
// The headline compile-time number: everything the optimizer does on one
// function of Arg loop nests at the highest level (Distribution), without
// the debug verifier — i.e. the production configuration. The PR-over-PR
// trajectory is recorded in EXPERIMENTS.md.

void BM_PipelineEndToEnd(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    State.ResumeTiming();
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Verify = false;
    optimizeFunction(*M->Functions[0], PO);
  }
}
BENCHMARK(BM_PipelineEndToEnd)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// The same run with timers + stats + remarks collection attached: the
/// instrumentation overhead the observability layer must keep under 10%
/// (EXPERIMENTS.md records the measured ratio against BM_PipelineEndToEnd).
void BM_PipelineEndToEndInstrumented(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileGen(unsigned(State.range(0)), NamingMode::Naive);
    InstrumentationOptions IO;
    IO.TimePasses = true;
    IO.CollectRemarks = true;
    auto PI = std::make_unique<PassInstrumentation>(IO);
    State.ResumeTiming();
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Verify = false;
    PO.Instr = PI.get();
    optimizeFunction(*M->Functions[0], PO);
    benchmark::DoNotOptimize(PI->stats().size());
  }
}
BENCHMARK(BM_PipelineEndToEndInstrumented)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// The same total work split across 16 functions and handed to the parallel
/// driver (4 workers). On a single-core host this measures the driver's
/// overhead, not scaling; see EXPERIMENTS.md.
void BM_PipelineEndToEndParallel(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileMultiFunction(16, unsigned(State.range(0)) / 16);
    State.ResumeTiming();
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Verify = false;
    runPipelineParallel(*M, PO, 4);
  }
}
BENCHMARK(BM_PipelineEndToEndParallel)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Interpreter profiling overhead ----------------------------------------
//
// The dynamic profiler's zero-cost-when-off contract: `interpret` without a
// collector runs a template instantiation in which every profiling touch
// sits behind `if constexpr (Profiling)` — the same machine code the
// dispatch loop compiled to before the hook existed. BM_Interpret (off) vs
// BM_InterpretProfiled (per-block counts, edge counts, per-class
// attribution) is the measured pair; EXPERIMENTS.md records the ratio.

void BM_Interpret(benchmark::State &State) {
  LowerResult LR = compileMiniFortran(generateSource(unsigned(State.range(0))),
                                      NamingMode::Naive);
  assert(LR.ok());
  Function &F = *LR.M->Functions[0];
  const std::vector<RtValue> Args = {RtValue::ofF(1.5), RtValue::ofF(2.5),
                                     RtValue::ofI(64)};
  for (auto _ : State) {
    MemoryImage Mem(LR.Routines[0].LocalMemBytes);
    ExecResult E = interpret(F, Args, Mem);
    assert(!E.Trapped);
    benchmark::DoNotOptimize(E.DynOps);
    State.SetItemsProcessed(State.items_processed() + int64_t(E.DynOps));
  }
}
BENCHMARK(BM_Interpret)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_InterpretProfiled(benchmark::State &State) {
  LowerResult LR = compileMiniFortran(generateSource(unsigned(State.range(0))),
                                      NamingMode::Naive);
  assert(LR.ok());
  Function &F = *LR.M->Functions[0];
  const std::vector<RtValue> Args = {RtValue::ofF(1.5), RtValue::ofF(2.5),
                                     RtValue::ofI(64)};
  for (auto _ : State) {
    MemoryImage Mem(LR.Routines[0].LocalMemBytes);
    ProfileCollector Prof;
    ExecResult E = interpret(F, Args, Mem, {}, &Prof);
    assert(!E.Trapped);
    FunctionProfile P = Prof.finalize(F);
    benchmark::DoNotOptimize(P.DynOps);
    State.SetItemsProcessed(State.items_processed() + int64_t(E.DynOps));
  }
}
BENCHMARK(BM_InterpretProfiled)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  // The Debian-packaged libbenchmark is compiled without NDEBUG, so the
  // JSON context's "library_build_type" says "debug" no matter how *this*
  // binary was built. Record the binary's own configuration so
  // scripts/bench.sh can refuse to publish numbers from a debug build.
#ifdef NDEBUG
  benchmark::AddCustomContext("epre_assertions", "disabled");
#else
  benchmark::AddCustomContext("epre_assertions", "enabled");
#endif
#ifdef EPRE_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("epre_build_type", EPRE_BENCH_BUILD_TYPE);
#else
  benchmark::AddCustomContext("epre_build_type", "unknown");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
