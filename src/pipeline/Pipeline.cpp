//===- pipeline/Pipeline.cpp ----------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "analysis/CFG.h"
#include "instrument/Profile.h"
#include "ir/Verifier.h"
#include "opt/ConstantPropagation.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/Peephole.h"
#include "opt/SimplifyCFG.h"
#include "opt/StrengthReduction.h"
#include "gvn/DVNT.h"
#include "gvn/ValueNumbering.h"
#include "pre/LocalizeNames.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

using namespace epre;

const char *epre::optLevelName(OptLevel L) {
  switch (L) {
  case OptLevel::None:
    return "none";
  case OptLevel::Baseline:
    return "baseline";
  case OptLevel::Partial:
    return "partial";
  case OptLevel::Reassociation:
    return "reassociation";
  case OptLevel::Distribution:
    return "distribution";
  }
  return "?";
}

const char *epre::gvnEngineName(GVNEngine E) {
  switch (E) {
  case GVNEngine::AWZ:
    return "awz";
  case GVNEngine::DVNT:
    return "dvnt";
  }
  return "?";
}

std::string epre::gvnEngineNames() {
  std::string Names;
  for (GVNEngine C : AllGVNEngines) {
    if (!Names.empty())
      Names += ", ";
    Names += gvnEngineName(C);
  }
  return Names;
}

const char *epre::preStrategyName(PREStrategy S) {
  switch (S) {
  case PREStrategy::LazyCodeMotion:
    return "lazy-code-motion";
  case PREStrategy::MorelRenvoise:
    return "morel-renvoise";
  case PREStrategy::GlobalCSE:
    return "gcse";
  case PREStrategy::Speculative:
    return "speculative";
  }
  return "?";
}

const char *epre::inputNamingName(InputNaming N) {
  switch (N) {
  case InputNaming::Hashed:
    return "hashed";
  case InputNaming::Naive:
    return "naive";
  }
  return "?";
}

bool epre::parseOptLevel(std::string_view Name, OptLevel &L) {
  for (OptLevel C : {OptLevel::None, OptLevel::Baseline, OptLevel::Partial,
                     OptLevel::Reassociation, OptLevel::Distribution})
    if (Name == optLevelName(C)) {
      L = C;
      return true;
    }
  return false;
}

bool epre::parsePREStrategy(std::string_view Name, PREStrategy &S) {
  if (Name == "lazy-code-motion" || Name == "lcm") {
    S = PREStrategy::LazyCodeMotion;
    return true;
  }
  if (Name == "morel-renvoise" || Name == "mr") {
    S = PREStrategy::MorelRenvoise;
    return true;
  }
  if (Name == "gcse" || Name == "cse") {
    S = PREStrategy::GlobalCSE;
    return true;
  }
  if (Name == "speculative" || Name == "lospre") {
    S = PREStrategy::Speculative;
    return true;
  }
  return false;
}

bool epre::parseGVNEngine(std::string_view Name, GVNEngine &E) {
  for (GVNEngine C : AllGVNEngines)
    if (Name == gvnEngineName(C)) {
      E = C;
      return true;
    }
  return false;
}

bool epre::parseInputNaming(std::string_view Name, InputNaming &N) {
  for (InputNaming C : {InputNaming::Hashed, InputNaming::Naive})
    if (Name == inputNamingName(C)) {
      N = C;
      return true;
    }
  return false;
}

std::string PipelineOptions::validate() const {
  if (Level == OptLevel::Partial && Naming == InputNaming::Naive)
    return "the 'partial' level requires the front end's hashed expression "
           "naming (paper §2.2): with naive naming PRE's lexical universe "
           "is empty and the level silently degenerates to baseline";
  if (Level == OptLevel::Distribution && !AllowFPReassoc)
    return "the 'distribution' level multiplies through floating-point "
           "sums and is meaningless with AllowFPReassoc=false; use "
           "'reassociation' or allow FP reassociation";
  if (Level == OptLevel::None && EnableStrengthReduction)
    return "EnableStrengthReduction does nothing at the 'none' level; "
           "pick at least 'baseline'";
  if (Strategy == PREStrategy::Speculative && !ProfileIn)
    return "the 'speculative' PRE strategy places computations by profiled "
           "edge weights and needs a dynamic profile attached "
           "(PipelineOptions::ProfileIn / -profile-in=); without one every "
           "expression would silently fall back to lazy code motion";
  return "";
}

std::optional<PipelineOptions>
PipelineOptions::create(const PipelineOptions &Proto, std::string *Err) {
  std::string Problem = Proto.validate();
  if (!Problem.empty()) {
    if (Err)
      *Err = std::move(Problem);
    return std::nullopt;
  }
  return Proto;
}

namespace {

/// Admission control for pipeline prefix execution (optimizeFunctionPrefix):
/// every pass application asks the gate before running, and the gate records
/// the name of each admitted pass. optimizeFunction runs with an unlimited
/// budget, so the gate reduces to trace bookkeeping there.
struct PassGate {
  unsigned Budget = ~0u;
  unsigned Count = 0;
  std::vector<std::string> Trace;

  bool admit(const char *Name) {
    if (Count >= Budget)
      return false;
    ++Count;
    Trace.push_back(Name);
    return true;
  }
  bool open() const { return Count < Budget; }
};

void verifyStage(const Function &F, const PipelineOptions &Opts,
                 SSAMode Mode, const char *Stage) {
  if (Opts.Verify)
    verifyOrDie(F, Mode, Stage);
}

/// The paper's baseline sequence; every level ends with it.
void runBaselineTail(Function &F, const PipelineOptions &Opts,
                     PassContext &Ctx, PassGate &Gate) {
  if (Gate.admit("sccp")) {
    SCCPPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "constant propagation");
  }
  if (Gate.admit("simplifycfg")) {
    SimplifyCFGPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "cfg simplification");
  }

  if (Gate.admit("peephole")) {
    PeepholePass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "peephole");
  }

  // Peephole can expose more constants (and vice versa); one more round
  // matches the paper's "sequence of passes" spirit without iterating to
  // an unbounded fixpoint.
  if (Gate.admit("sccp"))
    SCCPPass().run(F, Ctx);
  if (Gate.admit("simplifycfg"))
    SimplifyCFGPass().run(F, Ctx);
  if (Gate.admit("peephole")) {
    PeepholePass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "second peephole");
  }

  if (Gate.admit("dce")) {
    DCEPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "dead code elimination");
  }

  if (Gate.admit("coalesce")) {
    CopyCoalescingPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "coalescing");
  }

  if (Gate.admit("dce"))
    DCEPass().run(F, Ctx);
  if (Gate.admit("simplifycfg")) {
    SimplifyCFGPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::Relaxed, "final cleanup");
  }
}

void runReassociationPhase(Function &F, const PipelineOptions &Opts,
                           PassContext &Ctx, PassGate &Gate) {
  if (Gate.admit("ssa.build")) {
    SSABuildPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::SSA, "SSA construction");
  }
  // A prefix cut here leaves the function in SSA form, which the verifier
  // (Relaxed) and the interpreter both accept.
  if (!Gate.open())
    return;

  // The reassociation passes extend this map in place as they create
  // registers.
  RankMap Ranks = RankMap::compute(F, CFG::compute(F));

  if (Gate.admit("fwdprop")) {
    ForwardPropPass(Ranks).run(F, Ctx);
    verifyStage(F, Opts, SSAMode::NoSSA, "forward propagation");
  }

  ReassociateOptions RO;
  RO.AllowFPReassoc = Opts.AllowFPReassoc;
  RO.Distribute = Opts.Level == OptLevel::Distribution;

  if (Gate.admit("negnorm")) {
    NegNormPass(Ranks, RO).run(F, Ctx);
    verifyStage(F, Opts, SSAMode::NoSSA, "negation normalization");
  }

  if (Gate.admit("reassoc")) {
    ReassociatePass(Ranks, RO).run(F, Ctx);
    verifyStage(F, Opts, SSAMode::NoSSA, "reassociation");
  }

  if (Opts.Engine == GVNEngine::AWZ) {
    if (Gate.admit("gvn")) {
      GVNPass().run(F, Ctx);
      verifyStage(F, Opts, SSAMode::NoSSA, "global value numbering");
    }
  } else if (Gate.admit("dvnt")) {
    DVNTPass().run(F, Ctx);
    verifyStage(F, Opts, SSAMode::NoSSA, "global value numbering");
  }
}

/// PRE handles one nesting level of redundancy per run: deleting the
/// computation of an inner subexpression un-kills its parents. Iterate to
/// a fixpoint (bounded by expression-tree depth) in one PRESession, whose
/// rounds after the first re-solve only what the round before changed.
/// Counters accumulate across rounds (pre.universe is a per-round sum; see
/// observability doc). Each round is one gated pass application, so
/// bisection can land between rounds. Publishes pre.rounds and
/// pre.round_cap_hit (the round cap, not convergence, ended the loop).
void runPREToFixpoint(Function &F, const PipelineOptions &Opts,
                      PassContext &Ctx, PassGate &Gate) {
  constexpr unsigned RoundCap = 16;
  PRESession Session(F, Opts.Strategy,
                     Opts.ProfileIn ? Opts.ProfileIn->find(F.name())
                                    : nullptr);
  unsigned Rounds = 0;
  bool Converged = false;
  while (Rounds < RoundCap && Gate.admit("pre")) {
    ++Rounds;
    PREStats S = Session.run(Ctx);
    verifyStage(F, Opts, SSAMode::NoSSA, "PRE");
    if (S.Inserted == 0 && S.Deleted == 0) {
      Converged = true;
      break;
    }
  }
  if (StatsRegistry *R = Ctx.stats()) {
    if (Rounds)
      R->counter("pre", "rounds") += Rounds;
    if (Rounds == RoundCap && !Converged)
      R->counter("pre", "round_cap_hit") += 1;
  }
}

/// The shared body of optimizeFunction (unlimited gate) and
/// optimizeFunctionPrefix (budgeted gate).
PipelineStats optimizeFunctionGated(Function &F, const PipelineOptions &Opts,
                                    PassGate &Gate) {
  PipelineStats Stats;
  {
    // Every counter of this run lands in the per-function registry first;
    // one merge into the module-level sink happens after the root scope
    // closes, so emitters pay a single map update.
    PassContext Ctx(&Stats.Registry, Opts.Instr);
    PassScope Root(Ctx, "pipeline", F);
    Ctx.addStat("ops_before", F.staticOperationCount());

    if (Opts.Level != OptLevel::None) {
      // Relaxed input may arrive with phis, which SSA construction and the
      // passes after it do not take: leave SSA form first.
      if (F.hasPhi() && Gate.admit("ssa.destroy")) {
        SSADestroyPass().run(F, Ctx);
        verifyStage(F, Opts, SSAMode::NoSSA, "SSA destruction");
      }

      if (Gate.admit("unreachable-elim"))
        UnreachableBlockElimPass().run(F, Ctx);

      switch (Opts.Level) {
      case OptLevel::None:
      case OptLevel::Baseline:
        break;
      case OptLevel::Partial:
        // §5.1's "alternative approach": shadow-copy any expression name
        // the front end left live across a block boundary, so PRE's
        // universe never has to drop an expression.
        if (Gate.admit("localize")) {
          LocalizeNamesPass().run(F, Ctx);
          verifyStage(F, Opts, SSAMode::NoSSA, "name localization");
        }
        runPREToFixpoint(F, Opts, Ctx, Gate);
        break;
      case OptLevel::Reassociation:
      case OptLevel::Distribution:
        runReassociationPhase(F, Opts, Ctx, Gate);
        runPREToFixpoint(F, Opts, Ctx, Gate);
        break;
      }

      if (Opts.EnableStrengthReduction) {
        if (Gate.admit("strengthreduce")) {
          StrengthReductionPass().run(F, Ctx);
          verifyStage(F, Opts, SSAMode::NoSSA, "strength reduction");
        }
        if (Opts.Level != OptLevel::Baseline)
          runPREToFixpoint(F, Opts, Ctx, Gate);
      }

      runBaselineTail(F, Opts, Ctx, Gate);
    }

    Ctx.addStat("ops_after", F.staticOperationCount());
  }

  if (Opts.Instr)
    Opts.Instr->stats().merge(Stats.Registry);
  return Stats;
}

} // namespace

PipelineStats epre::optimizeFunction(Function &F,
                                     const PipelineOptions &Opts) {
  PassGate Gate;
  return optimizeFunctionGated(F, Opts, Gate);
}

PassPrefixResult epre::optimizeFunctionPrefix(Function &F,
                                              const PipelineOptions &Opts,
                                              unsigned MaxPasses) {
  PassGate Gate;
  Gate.Budget = MaxPasses;
  optimizeFunctionGated(F, Opts, Gate);
  PassPrefixResult R;
  R.PassesRun = Gate.Count;
  R.Trace = std::move(Gate.Trace);
  return R;
}

std::vector<PipelineStats> epre::optimizeModule(Module &M,
                                                const PipelineOptions &Opts) {
  std::vector<PipelineStats> All;
  for (auto &F : M.Functions)
    All.push_back(optimizeFunction(*F, Opts));
  return All;
}

std::vector<PipelineStats>
epre::runPipelineParallel(Module &M, const PipelineOptions &Opts,
                          unsigned NumThreads) {
  size_t N = M.Functions.size();
  std::vector<PipelineStats> All(N);
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  NumThreads = unsigned(std::min<size_t>(NumThreads, N));
  if (NumThreads <= 1) {
    for (size_t I = 0; I < N; ++I)
      All[I] = optimizeFunction(*M.Functions[I], Opts);
    return All;
  }

  // Functions share nothing, so a shared atomic cursor is the whole
  // scheduler: each worker claims the next unprocessed function until the
  // module is drained.
  //
  // Instrumentation: PassInstrumentation is single-threaded by contract,
  // so each function gets a private child sink, created by whichever
  // worker claims it and merged below in module order — counters, timer
  // report, and remark stream come out identical to the serial driver
  // regardless of scheduling (timer slices keep a per-worker trace lane).
  // Parent callbacks deliberately do not fire here: they would run
  // concurrently from the workers. Each All[I] / Children[I] slot is
  // written by exactly one worker and read only after the join, so the
  // only shared mutable state is the two atomics.
  std::vector<std::unique_ptr<PassInstrumentation>> Children(N);
  std::atomic<size_t> Next{0};
  std::atomic<uint32_t> Lanes{0};
  auto Worker = [&] {
    uint32_t Lane = 1 + Lanes.fetch_add(1, std::memory_order_relaxed);
    while (true) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      PipelineOptions Local = Opts;
      if (Opts.Instr) {
        Children[I] =
            std::make_unique<PassInstrumentation>(Opts.Instr->options());
        Children[I]->timers().setLane(Lane);
        Local.Instr = Children[I].get();
      }
      All[I] = optimizeFunction(*M.Functions[I], Local);
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();

  if (Opts.Instr)
    for (size_t I = 0; I < N; ++I)
      if (Children[I])
        Opts.Instr->merge(std::move(*Children[I]));
  return All;
}
