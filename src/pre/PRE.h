//===- pre/PRE.h - Partial redundancy elimination ----------------*- C++ -*-===//
///
/// \file
/// Partial redundancy elimination over lexically named expressions, in the
/// Drechsler–Stadel formulation (edge placement, unidirectional equations —
/// the variation the paper's implementation uses [14]).
///
/// The expression universe is built from the naming discipline of §2.2:
/// every computation of expression e targets the same register d_e, so an
/// expression is identified by its destination name. Requirements checked
/// (not assumed): every definition of d_e is the same lexical expression,
/// and d_e is never used in a block without a preceding local definition
/// (the §5.1 rule — forward propagation and the hashed front end establish
/// it; expressions violating it are conservatively dropped).
///
/// A Morel–Renvoise-style bidirectional variant is provided for ablation.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_PRE_PRE_H
#define EPRE_PRE_PRE_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <memory>
#include <vector>

namespace epre {

struct FunctionProfile;

enum class PREStrategy {
  /// Drechsler–Stadel lazy code motion (computationally optimal placement,
  /// unidirectional dataflow, edge insertion).
  LazyCodeMotion,
  /// The original Morel–Renvoise bidirectional system, inserting at block
  /// ends only.
  MorelRenvoise,
  /// Classic global common-subexpression elimination: remove fully
  /// redundant computations (available on every path), insert nothing.
  /// The middle rung of the §5.3 hierarchy; used for the ablation bench.
  GlobalCSE,
  /// Profile-guided speculative placement (lospre-style): per expression,
  /// a min cut of a flow network capacitated by profiled edge weights
  /// picks the cheapest set of insertion edges, allowing evaluation on
  /// paths where the expression is not anticipated when the profile says
  /// total weighted evaluations shrink. Requires the function's profile,
  /// handed to PREPass; expressions (or whole functions) without profile
  /// coverage fall back to lazy code motion.
  /// Only non-trapping expressions are speculated
  /// (docs/speculative-pre.md).
  Speculative,
};

struct PREStats {
  unsigned UniverseSize = 0;   ///< expressions considered
  unsigned DroppedUnsafe = 0;  ///< expressions dropped by the §5.1 filter
  unsigned Inserted = 0;       ///< computations inserted on edges
  unsigned Deleted = 0;        ///< redundant computations removed
  unsigned EdgesSplit = 0;     ///< critical edges split for insertion
  /// Expressions whose min-cut placement beat LCM's weighted cost and was
  /// adopted (Speculative strategy only).
  unsigned Speculated = 0;
  /// Arcs built across the per-expression min-cut networks (Speculative
  /// strategy only): the deterministic measure of the placement's work.
  uint64_t SpecNetworkArcs = 0;
  /// Block evaluations of the AVAIL and ANT solves. A round solves only
  /// the expressions its session marked dirty, so these count the work the
  /// round did, not the size of the function.
  unsigned AvailIterations = 0;
  unsigned AntIterations = 0;
  /// 64-bit words the AVAIL, ANT and LATERIN solves moved through their
  /// meet and store kernels: the deterministic measure of the dataflow work.
  uint64_t Work = 0;
};

/// One PRE fixpoint as an incremental session over one function. Each
/// run() is one PRE round, a `pre` pass application; the first round is a
/// full solve. Later rounds keep the CFG, the §2.2 expression universe with
/// its §5.1 filter state and each block's local facts, and re-solve only
/// the expressions the previous round made dirty: the ones it inserted or
/// deleted, the ones reading a name whose definitions it changed, names
/// that entered the universe, and the ones whose facts or speculative
/// pricing cross an edge it split. Every other expression has the
/// placement it had, which was empty, so each round prints the same IR,
/// remarks and counters as a fresh PREPass on the same input
/// (docs/PASSES.md). The function must change only through the session
/// between rounds.
class PRESession {
public:
  /// \p Profile (not owned, may be null) weights Speculative placement;
  /// the other strategies ignore it.
  PRESession(Function &F, PREStrategy Strategy,
             const FunctionProfile *Profile = nullptr);
  ~PRESession();
  PRESession(const PRESession &) = delete;
  PRESession &operator=(const PRESession &) = delete;

  /// Runs the next round as one `pre` pass application and publishes its
  /// counters; returns the round's stats.
  PREStats run(PassContext &Ctx);

  struct Impl;

private:
  std::unique_ptr<Impl> P;
};

/// Partial redundancy elimination behind the unified pass-entry API: one
/// round of a fresh PRESession. Runs on phi-free code whose names obey the
/// §2.2 discipline; never lengthens any execution path. Preserves the CFG
/// shape unless an insertion had to split a critical edge.
///
/// Counters: pre.universe, pre.dropped_unsafe, pre.inserted, pre.deleted,
/// pre.edges_split, pre.speculated, pre.spec_network_arcs,
/// pre.avail_iterations, pre.ant_iterations.
/// Remarks: Insert per placed computation, Delete per removed one.
class PREPass {
public:
  static constexpr const char *name() { return "pre"; }
  /// \p Profile (not owned, may be null) weights Speculative placement;
  /// the other strategies ignore it.
  explicit PREPass(PREStrategy Strategy = PREStrategy::LazyCodeMotion,
                   const FunctionProfile *Profile = nullptr)
      : Strategy(Strategy), Profile(Profile) {}
  void run(Function &F, PassContext &Ctx);

  /// Stats of the most recent run.
  const PREStats &lastStats() const { return Last; }

  /// PREStats::Work of the most recent run. Deterministic, so tests can
  /// bound its growth; it is not a registry counter.
  uint64_t lastWork() const { return Last.Work; }

private:
  PREStrategy Strategy;
  const FunctionProfile *Profile;
  PREStats Last;
};

/// The dataflow half of PRE — universe construction, local properties, and
/// the AVAIL/ANT fixpoints — with no code motion. Exposed so the solves can
/// be benchmarked in isolation and checked bit for bit against a reference.
/// The local sets and the ANT boundary are exported alongside the solutions
/// so a test can pose the same two systems to its own solver.
struct PREDataflow {
  PREStats Stats;
  std::vector<Reg> Names; ///< the universe: each expression's name, by index
  std::vector<BitVector> ANTLOC, COMP, TRANSP;
  /// Blocks whose ANTOUT is forced empty: they cannot reach an exit.
  std::vector<uint8_t> AntBoundary;
  std::vector<BitVector> AVIN, AVOUT, ANTIN, ANTOUT;
};

PREDataflow analyzePartialRedundancies(Function &F);

namespace fault {

/// Testing-only miscompile switch for the fuzzer's end-to-end check
/// (docs/fuzzing.md): when enabled, PRE's availability solve uses a union
/// meet instead of the required intersection, i.e. it treats an expression
/// as available at a join if it reaches on *any* path rather than on every
/// path (sets start all-zero and the entry block is no boundary). GlobalCSE then deletes computations that are not actually
/// available, and LCM/Morel-Renvoise misplace insertions — a classic PRE
/// placement bug. Process-global; never enable outside tests/tools.
void setPREDropAvailabilityMeet(bool Enable);
bool preDropAvailabilityMeet();

} // namespace fault

} // namespace epre

#endif // EPRE_PRE_PRE_H
