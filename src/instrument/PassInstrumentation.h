//===- instrument/PassInstrumentation.h - Pass observability ----*- C++ -*-===//
///
/// \file
/// PassInstrumentation bundles every observability channel the pipeline
/// threads through its passes:
///
///  - before/after-pass callbacks (registration order, properly nested for
///    passes that run sub-passes);
///  - the hierarchical wall-clock TimerTree with the `--time-passes`-style
///    report and Chrome trace_event export;
///  - the StatsRegistry aggregating named counters across functions;
///  - the RemarkCollector for structured optimization remarks;
///  - IR snapshotting: a dump after each pass that actually changed the
///    function (the printed IR is hashed before and after).
///
/// Passes never talk to PassInstrumentation directly; they receive a
/// PassContext (below), whose null state makes every channel a no-op so the
/// uninstrumented pipeline pays only a pointer test per call.
///
/// Thread model: one PassInstrumentation must only be fed from one thread
/// at a time. The parallel pipeline driver gives each function its own
/// child instance and merges them in module order (deterministic output
/// regardless of worker scheduling) — see runPipelineParallel.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_INSTRUMENT_PASSINSTRUMENTATION_H
#define EPRE_INSTRUMENT_PASSINSTRUMENTATION_H

#include "instrument/PassTimer.h"
#include "instrument/Remark.h"
#include "instrument/Statistic.h"
#include "ir/Function.h"

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace epre {

/// What the instrumentation collects. All channels default off except the
/// callbacks, which fire whenever any are registered.
struct InstrumentationOptions {
  /// Collect the wall-clock timer tree (report() / Chrome trace export).
  bool TimePasses = false;
  /// Collect structured optimization remarks (filtered by RemarkPasses).
  bool CollectRemarks = false;
  /// Restrict remark collection to these pass names; empty = every pass.
  std::vector<std::string> RemarkPasses;
  /// Dump the IR of a pass's function after the pass, but only when the
  /// printed IR actually changed (hash comparison against the before-pass
  /// snapshot).
  bool PrintChangedIR = false;
};

/// Aggregating sink for pass-execution events. Create one, point
/// PipelineOptions::Instr at it, run the pipeline, then read the timers /
/// stats / remarks, or serialize them with statsJSON() / the component
/// exporters.
class PassInstrumentation {
public:
  using PassCallback =
      std::function<void(std::string_view PassName, const Function &F)>;

  explicit PassInstrumentation(InstrumentationOptions Opts = {})
      : Opts(std::move(Opts)) {
    Remarks.setPassFilter(this->Opts.RemarkPasses);
  }

  PassInstrumentation(const PassInstrumentation &) = delete;
  PassInstrumentation &operator=(const PassInstrumentation &) = delete;

  const InstrumentationOptions &options() const { return Opts; }

  /// Registers a callback invoked before/after every pass execution, in
  /// registration order (after-callbacks fire in registration order too,
  /// immediately after the pass's timer closes).
  void registerBeforePass(PassCallback CB) {
    BeforeCBs.push_back(std::move(CB));
  }
  void registerAfterPass(PassCallback CB) {
    AfterCBs.push_back(std::move(CB));
  }

  /// Driver-side notification: a pass named \p Name is about to run /
  /// just ran on \p F. Called by PassScope, never by passes themselves.
  void runBeforePass(std::string_view Name, const Function &F);
  void runAfterPass(std::string_view Name, const Function &F);

  TimerTree &timers() { return Timers; }
  const TimerTree &timers() const { return Timers; }
  StatsRegistry &stats() { return Stats; }
  const StatsRegistry &stats() const { return Stats; }
  RemarkCollector &remarks() { return Remarks; }
  const RemarkCollector &remarks() const { return Remarks; }

  /// Where IR snapshots go; defaults to stderr.
  void setSnapshotSink(std::function<void(const std::string &)> Sink) {
    SnapshotSink = std::move(Sink);
  }

  /// One JSON document with the pass timing aggregate, every counter, and
  /// the per-pass remark counts (the "suite run emits a single JSON
  /// document" format; schema in docs/observability.md).
  std::string statsJSON() const;

  /// Deterministic module-order merge of a per-function/per-worker child:
  /// timers are appended, counters summed, remarks concatenated. The child
  /// is left empty.
  void merge(PassInstrumentation &&Child);

private:
  InstrumentationOptions Opts;
  TimerTree Timers;
  StatsRegistry Stats;
  RemarkCollector Remarks;
  std::vector<PassCallback> BeforeCBs, AfterCBs;
  /// Hash of the printed IR at each currently-open pass nesting level
  /// (PrintChangedIR); parallel stack to the timer's open slices.
  std::vector<uint64_t> HashStack;
  std::function<void(const std::string &)> SnapshotSink;

  void snapshot(const std::string &Text);
};

/// The per-run handle a pass receives: the instrumentation hooks, the
/// remark emitter, and the stats registry, behind null-checked calls. A
/// default-constructed PassContext disables everything, which is what a
/// pass run outside any pipeline (a test, a benchmark) uses.
///
/// The pipeline constructs one PassContext per function run, pointing at
/// the per-function StatsRegistry (always present — it backs PipelineStats)
/// and at the optional PassInstrumentation sink.
class PassContext {
public:
  PassContext() = default;
  explicit PassContext(StatsRegistry *Stats, PassInstrumentation *PI = nullptr)
      : Stats(Stats), PI(PI) {}

  PassInstrumentation *instrumentation() const { return PI; }
  StatsRegistry *stats() const { return Stats; }

  /// Name of the innermost running pass ("" outside any PassScope).
  std::string_view passName() const {
    return PassStack.empty() ? std::string_view() : PassStack.back();
  }

  /// Bumps the counter <current-pass>.<Name> by \p Delta in the run's
  /// registry. The pipeline merges per-function registries into the
  /// module-level PassInstrumentation sink when one is attached, so
  /// emitters pay one map update, not two.
  void addStat(std::string_view Name, uint64_t Delta) {
    if (Delta == 0 || !Stats || PassStack.empty())
      return;
    Stats->counter(passName(), Name) += Delta;
  }

  /// Cheap guard emitters use before building remark strings.
  bool remarksEnabled() const {
    return PI && PI->options().CollectRemarks &&
           PI->remarks().wants(passName());
  }

  /// Emits a remark attributed to the current pass. Call only under a
  /// remarksEnabled() guard (harmless otherwise, but the string arguments
  /// would be constructed for nothing).
  void remark(RemarkKind Kind, const Function &F, std::string_view Block,
              std::string_view Opcode, std::string Message) {
    if (!remarksEnabled())
      return;
    Remark R;
    R.Kind = Kind;
    R.Pass = std::string(passName());
    R.Function = F.name();
    R.Block = std::string(Block);
    R.Opcode = std::string(Opcode);
    R.Message = std::move(Message);
    PI->remarks().emit(std::move(R));
  }

private:
  friend class PassScope;
  StatsRegistry *Stats = nullptr;
  PassInstrumentation *PI = nullptr;
  std::vector<std::string_view> PassStack;
};

/// RAII pass-execution scope: announces the pass to the instrumentation
/// (callbacks, timer slice, IR snapshot) and names the stats/remark
/// attribution for everything the pass does while the scope is alive.
/// Every unified `run(Function&, PassContext&)` entry point opens one of
/// these first; sub-passes invoked through their own run() nest naturally.
class PassScope {
public:
  PassScope(PassContext &Ctx, std::string_view Name, const Function &F)
      : Ctx(Ctx), F(F) {
    Ctx.PassStack.push_back(Name);
    if (Ctx.PI)
      Ctx.PI->runBeforePass(Name, F);
  }
  ~PassScope() {
    if (Ctx.PI)
      Ctx.PI->runAfterPass(Ctx.PassStack.back(), F);
    Ctx.PassStack.pop_back();
  }

  PassScope(const PassScope &) = delete;
  PassScope &operator=(const PassScope &) = delete;

private:
  PassContext &Ctx;
  const Function &F;
};

} // namespace epre

#endif // EPRE_INSTRUMENT_PASSINSTRUMENTATION_H
