//===- pipeline/Pipeline.h - The paper's optimization levels -----*- C++ -*-===//
///
/// \file
/// Assembles the passes into the four optimization levels measured in
/// Table 1 of the paper:
///
///  - \c Baseline: constant propagation, global peephole, dead code
///    elimination, coalescing, empty-block elimination;
///  - \c Partial: PRE first (requires the front end's hashed naming
///    discipline), then the baseline tail;
///  - \c Reassociation: pruned SSA + ranks, forward propagation, negation
///    normalization, rank-sorted reassociation, global value numbering with
///    renaming, PRE, then the baseline tail;
///  - \c Distribution: Reassociation plus distribution of multiplication
///    over addition.
///
/// Every pass is invoked through the unified `run(Function&, PassContext&)`
/// entry point and computes the analyses it reads itself, so attaching a
/// PassInstrumentation to PipelineOptions::Instr observes the whole
/// pipeline (timers, counters, remarks, IR snapshots) without any per-pass
/// wiring.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_PIPELINE_PIPELINE_H
#define EPRE_PIPELINE_PIPELINE_H

#include "instrument/PassInstrumentation.h"
#include "pre/PRE.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace epre {

struct ProfileDoc;

enum class OptLevel {
  None,          ///< leave the code as the front end produced it
  Baseline,      ///< the paper's "baseline" column
  Partial,       ///< + PRE (front end must use hashed naming)
  Reassociation, ///< + reassociation & GVN before PRE (naive naming ok)
  Distribution,  ///< + distribution of multiplication over addition
};

const char *optLevelName(OptLevel L);

/// Which value-numbering engine establishes the §3.2 name space.
enum class GVNEngine {
  AWZ,  ///< Alpern-Wegman-Zadeck optimistic partitioning (the paper's)
  DVNT, ///< dominator-tree hash-based numbering (the paper's "missing pass")
};

/// Every engine, in the order option surfaces enumerate them.
inline constexpr GVNEngine AllGVNEngines[] = {GVNEngine::AWZ,
                                              GVNEngine::DVNT};

const char *gvnEngineName(GVNEngine E);
/// Comma-separated list of the valid engine spellings ("awz, dvnt"), for
/// error messages on the option surfaces.
std::string gvnEngineNames();
const char *preStrategyName(PREStrategy S);

/// How the front end named expressions in the input handed to the
/// pipeline. The Partial level consumes names as-is and therefore requires
/// the §2.2 hashed discipline; the reassociation levels construct their
/// own naming and accept either.
enum class InputNaming {
  Hashed, ///< one destination register per lexical expression (§2.2)
  Naive,  ///< a fresh register per computation
};

const char *inputNamingName(InputNaming N);

/// Round-trips for the names above: parse "baseline", "lcm",
/// "morel-renvoise", "awz", "hashed", ... back into the enum. Return false
/// on unknown spellings (match is case-sensitive, exactly the string the
/// corresponding *Name function produces, plus the historical aliases
/// "lcm" / "mr" / "gcse" for the PRE strategies).
bool parseOptLevel(std::string_view Name, OptLevel &L);
bool parsePREStrategy(std::string_view Name, PREStrategy &S);
bool parseGVNEngine(std::string_view Name, GVNEngine &E);
bool parseInputNaming(std::string_view Name, InputNaming &N);

struct PipelineOptions {
  OptLevel Level = OptLevel::Baseline;
  PREStrategy Strategy = PREStrategy::LazyCodeMotion;
  GVNEngine Engine = GVNEngine::AWZ;
  /// What naming discipline the input arrives in. Validation rejects the
  /// Partial level on Naive input (PRE would silently drop most of its
  /// universe).
  InputNaming Naming = InputNaming::Hashed;
  /// Exploit F64 associativity (FORTRAN semantics). Off = bit-exact only.
  bool AllowFPReassoc = true;
  /// Run loop strength reduction (the paper's other "missing pass") after
  /// PRE, before the baseline tail.
  bool EnableStrengthReduction = false;
  /// Run the IR verifier after every pass (aborts on breakage).
  bool Verify = true;
  /// Dynamic profile the pipeline may consume (profile-guided input, the
  /// other direction from Instr's profile *output*): each function's entry,
  /// keyed by function name, is handed to PRE. Not owned; must outlive the
  /// pipeline run. Required by PREStrategy::Speculative (validate() rejects
  /// the combination without it); other strategies ignore it.
  const ProfileDoc *ProfileIn = nullptr;
  /// Optional observability sink: timers, counters, remarks, IR snapshots.
  /// Not owned. Must only be fed from one thread at a time; the parallel
  /// driver takes care of that by giving every function a private child
  /// sink and merging in module order.
  PassInstrumentation *Instr = nullptr;

  /// Returns "" when the combination is consistent, else a one-line
  /// description of the first problem found.
  std::string validate() const;

  /// Validating factory: returns the options when consistent, or
  /// std::nullopt with the problem description in \p Err (when non-null).
  static std::optional<PipelineOptions> create(const PipelineOptions &Proto,
                                               std::string *Err = nullptr);
};

/// Counters of one pipeline run, backed by the instrumentation layer's
/// stats registry. Consumers read through the stable accessors below (or
/// get()) instead of reaching into pass-specific structs; the counter
/// names are part of the observability interface (docs/observability.md).
///
/// Counters accumulate over every invocation of a pass in the run: a pass
/// that executes twice (e.g. PRE iterating to its fixpoint) contributes
/// the sum of both executions.
struct PipelineStats {
  StatsRegistry Registry;

  uint64_t get(std::string_view Pass, std::string_view Counter) const {
    return Registry.get(Pass, Counter);
  }

  uint64_t opsBefore() const { return get("pipeline", "ops_before"); }
  uint64_t opsAfter() const { return get("pipeline", "ops_after"); }

  uint64_t preUniverse() const { return get("pre", "universe"); }
  uint64_t preInserted() const { return get("pre", "inserted"); }
  uint64_t preDeleted() const { return get("pre", "deleted"); }
  uint64_t preAvailIterations() const { return get("pre", "avail_iterations"); }
  uint64_t preAntIterations() const { return get("pre", "ant_iterations"); }

  uint64_t gvnClasses() const { return get("gvn", "classes"); }
  /// The engine-uniform redundancy count (docs/gvn-engines.md): every
  /// definition the engine folded into another name. Whichever engine
  /// ran, exactly one of these counters is non-zero.
  uint64_t gvnRedundanciesFound() const {
    return get("gvn", "redundancies_found") +
           get("dvnt", "redundancies_found");
  }

  uint64_t phisRemoved() const { return get("fwdprop", "phis_removed"); }
  uint64_t treesCloned() const { return get("fwdprop", "trees_cloned"); }
  double fwdExpansion() const {
    uint64_t B = get("fwdprop", "ops_before");
    return B ? double(get("fwdprop", "ops_after")) / double(B) : 1.0;
  }

  uint64_t copiesCoalesced() const { return get("coalesce", "copies_removed"); }

  /// Commutative aggregation across functions (suite totals).
  void merge(const PipelineStats &O) { Registry.merge(O.Registry); }
};

/// Runs the configured pipeline on \p F in place.
PipelineStats optimizeFunction(Function &F, const PipelineOptions &Opts);

/// Outcome of a prefix-bounded pipeline run (see optimizeFunctionPrefix).
struct PassPrefixResult {
  /// Pass applications actually executed (each PRE fixpoint round counts as
  /// one application).
  unsigned PassesRun = 0;
  /// Names of the executed passes, in execution order (the pass name()
  /// constants: "sccp", "pre", "ssa.build", ...). Trace.size() == PassesRun.
  std::vector<std::string> Trace;
};

/// Runs exactly the first \p MaxPasses pass applications of the pipeline
/// optimizeFunction would run for \p Opts, then stops; the function is left
/// in whatever intermediate state the prefix produced (still verifier-clean
/// in Relaxed mode — possibly SSA form if the cut lands inside the
/// reassociation phase). Pass MaxPasses = ~0u for the full pipeline; the
/// returned trace then names every pass application, which is what the
/// fuzzer's bisection replays. A given (function, options) pair runs the
/// same sequence every time, so prefixes of the full trace are faithful
/// replays.
PassPrefixResult optimizeFunctionPrefix(Function &F,
                                        const PipelineOptions &Opts,
                                        unsigned MaxPasses);

/// Runs the configured pipeline on every function of \p M; returns the
/// per-function stats in module order.
std::vector<PipelineStats> optimizeModule(Module &M,
                                          const PipelineOptions &Opts);

/// Runs the configured pipeline on every function of \p M, distributing the
/// functions across \p NumThreads worker threads (0 = one per hardware
/// thread). Functions are fully independent — the pipeline touches nothing
/// outside the Function it is handed — so this is safe, deterministic, and
/// returns stats in module order, identical to optimizeModule.
///
/// When Opts.Instr is set, every function gets a private child sink which
/// is merged into Opts.Instr in module order after the join, so counters
/// and remarks are deterministic regardless of worker scheduling (timer
/// slices keep their per-worker lane). Parent callbacks do not fire in
/// parallel runs: they would otherwise run concurrently from the workers.
std::vector<PipelineStats> runPipelineParallel(Module &M,
                                               const PipelineOptions &Opts,
                                               unsigned NumThreads = 0);

} // namespace epre

#endif // EPRE_PIPELINE_PIPELINE_H
