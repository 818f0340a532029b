//===- bench/bench_interp.cpp - Interpreter engine benchmarks -------------===//
///
/// Interpreter benchmarks for the predecoded bytecode engine
/// (docs/interpreter.md): the tree-walking reference in tests/reference/
/// against direct-threaded predecoded execution, one-time predecode cost,
/// profiling overhead, and end-to-end fuzz-campaign throughput (where the
/// win compounds — every oracle config re-executes the same program).
///
/// scripts/bench.sh runs this binary, extracts BM_InterpretLegacy vs
/// BM_Interpret at Arg 64, and refuses to publish BENCH_interp.json unless
/// the predecoded engine clears a 3x speedup (the ISSUE 6 acceptance gate).
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "instrument/Profile.h"
#include "interp/Predecode.h"
#include "support/StringUtil.h"

#include "ReferenceInterpreter.h"

#include <benchmark/benchmark.h>

#include <cassert>
#include <memory>

using namespace epre;

namespace {

/// Same generated loop-nest family as bench_pass_timing.cpp's BM_Interpret,
/// so numbers are comparable across the two binaries.
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

struct Workload {
  LowerResult LR;
  std::vector<RtValue> Args = {RtValue::ofF(1.5), RtValue::ofF(2.5),
                               RtValue::ofI(64)};
  Workload(unsigned NumLoops)
      : LR(compileMiniFortran(generateSource(NumLoops), NamingMode::Naive)) {
    assert(LR.ok());
  }
  Function &func() { return *LR.M->Functions[0]; }
  size_t memBytes() const { return LR.Routines[0].LocalMemBytes; }
};

/// The tree-walking reference from tests/reference/: the gate's baseline.
void BM_InterpretLegacy(benchmark::State &State) {
  Workload W(unsigned(State.range(0)));
  for (auto _ : State) {
    MemoryImage Mem(W.memBytes());
    ExecResult E = interpretReference(W.func(), W.Args, Mem);
    assert(!E.Trapped);
    benchmark::DoNotOptimize(E.DynOps);
    State.SetItemsProcessed(State.items_processed() + int64_t(E.DynOps));
  }
}
BENCHMARK(BM_InterpretLegacy)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

/// The predecoded direct-threaded engine — what `interpret` runs.
/// Includes the per-call predecode (amortized to near zero by the
/// thread-local arena; BM_Predecode isolates it).
void BM_Interpret(benchmark::State &State) {
  Workload W(unsigned(State.range(0)));
  for (auto _ : State) {
    MemoryImage Mem(W.memBytes());
    ExecResult E = interpret(W.func(), W.Args, Mem);
    assert(!E.Trapped);
    benchmark::DoNotOptimize(E.DynOps);
    State.SetItemsProcessed(State.items_processed() + int64_t(E.DynOps));
  }
}
BENCHMARK(BM_Interpret)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

/// The engine with the full dynamic profile attached, for the
/// zero-cost-when-off comparison on the predecoded loop.
void BM_InterpretProfiled(benchmark::State &State) {
  Workload W(unsigned(State.range(0)));
  for (auto _ : State) {
    MemoryImage Mem(W.memBytes());
    ProfileCollector Prof;
    ExecResult E = interpret(W.func(), W.Args, Mem, {}, &Prof);
    assert(!E.Trapped);
    FunctionProfile P = Prof.finalize(W.func());
    benchmark::DoNotOptimize(P.DynOps);
    State.SetItemsProcessed(State.items_processed() + int64_t(E.DynOps));
  }
}
BENCHMARK(BM_InterpretProfiled)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/// One-time translation cost: Function -> flat bytecode, arena-backed.
void BM_Predecode(benchmark::State &State) {
  Workload W(unsigned(State.range(0)));
  Predecoder PD;
  Arena A;
  for (auto _ : State) {
    A.reset();
    BytecodeFunction BF;
    bool Ok = PD.predecode(W.func(), A, BF);
    assert(Ok);
    (void)Ok;
    benchmark::DoNotOptimize(BF.CodeLen);
  }
}
BENCHMARK(BM_Predecode)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Fuzz-campaign execution throughput: generate a fixed pool of programs
/// once, then measure interpretation across the pool — the shape of the
/// differential oracle's inner loop, where every config re-executes the
/// same program.
void BM_FuzzExecThroughput(benchmark::State &State) {
  std::vector<std::string> Shapes = fuzz::generatorShapeNames();
  struct Prog {
    std::unique_ptr<Module> M;
    std::vector<RtValue> Args;
    size_t MemBytes;
  };
  std::vector<Prog> Pool;
  for (unsigned Seed = 0; Seed < 64; ++Seed) {
    fuzz::GeneratorOptions Opts;
    const std::string &Shape = Shapes[Seed % Shapes.size()];
    fuzz::shapeOptions(Shape, Opts);
    fuzz::FuzzProgram P = fuzz::generateProgram(Seed, Opts, Shape);
    std::unique_ptr<Module> M = fuzz::parseModuleText(P.Text);
    assert(M && !M->Functions.empty());
    Pool.push_back({std::move(M), P.Args, P.MemBytes});
  }
  ExecLimits Limits;
  Limits.MaxOps = 200'000;
  int64_t Programs = 0;
  for (auto _ : State) {
    for (Prog &P : Pool) {
      MemoryImage Mem(P.MemBytes);
      ExecResult E =
          interpret(*P.M->Functions[0], P.Args, Mem, Limits);
      benchmark::DoNotOptimize(E.DynOps);
    }
    Programs += int64_t(Pool.size());
  }
  State.SetItemsProcessed(Programs);
}
BENCHMARK(BM_FuzzExecThroughput)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  // See bench_pass_timing.cpp: record this binary's own configuration since
  // the packaged libbenchmark misreports library_build_type.
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
  benchmark::AddCustomContext("epre_dispatch_mode", interpDispatchMode());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
