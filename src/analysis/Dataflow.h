//===- analysis/Dataflow.h - Worklist bit-vector dataflow engine -*- C++ -*-===//
///
/// \file
/// A shared solver for the global bit-vector dataflow problems of the
/// optimizer (availability and anticipability in PRE, register liveness).
///
/// A problem is described by its direction, its meet operator, and an
/// in-place transfer function; the engine owns iteration order, meets,
/// storage initialization, change detection, and the worklist discipline:
///
///  - blocks are seeded in reverse postorder (forward problems) or
///    postorder (backward problems), the orders that converge fastest on
///    reducible flow graphs;
///  - after the seed pass, a block is re-evaluated only when the flow-side
///    set of a meet-side neighbour actually changed (word-level change
///    detection via the BitVector changed-flag kernels);
///  - all temporaries come from a BitVectorScratch pool, so the steady-state
///    solve performs zero heap allocation.
///
/// The equivalence tests (tests/dataflow_test.cpp) keep a plain
/// sweep-until-no-change solver as the reference; both compute the same
/// unique fixpoint of the monotone equation system, bit for bit.
///
/// See docs/dataflow-engine.md for the design discussion.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_DATAFLOW_H
#define EPRE_ANALYSIS_DATAFLOW_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace epre {

enum class DataflowDirection { Forward, Backward };

enum class MeetOp {
  Intersect, ///< all-paths problems (AVAIL, ANT); sets start all-ones
  Union,     ///< any-path problems (liveness); sets start all-zero
};

/// Cost counters for one solve; cheap to gather, surfaced through
/// PREStats/PipelineStats so degenerate CFGs that iterate excessively are
/// visible in the suite driver.
struct DataflowStats {
  unsigned Iterations = 0;    ///< block transfer evaluations (worklist pops)
  unsigned BlocksVisited = 0; ///< distinct blocks evaluated at least once
  uint64_t WordsTouched = 0;  ///< 64-bit words moved by the solver's meet,
                              ///< store, and compare kernels

  void accumulate(const DataflowStats &O) {
    Iterations += O.Iterations;
    BlocksVisited += O.BlocksVisited;
    WordsTouched += O.WordsTouched;
  }
};

/// Description of one bit-vector dataflow problem. The per-block transfer is
///
///   Flow = (Meet & Preserve) | Gen     (if \p Preserve is set), or
///   Flow = (Meet & ~Kill)    | Gen     (if \p Kill is set),
///
/// computed fused with the change-detecting store in a single word pass per
/// block (BitVector::assignMeetPreserveGen / assignMeetKillGen).
struct BitDataflowProblem {
  DataflowDirection Dir = DataflowDirection::Forward;
  MeetOp Meet = MeetOp::Intersect;
  /// Universe size (bits per set).
  unsigned NumBits = 0;
  /// Optional per-block constant folded into every meet on the meet side
  /// (e.g. liveness phi-uses entering a block's successors). Indexed by
  /// BlockId; only meaningful for union problems.
  const std::vector<BitVector> *MeetSeed = nullptr;
  /// Optional extra boundary blocks (indexed by BlockId, nonzero = boundary):
  /// for intersect problems the meet-side set of a boundary block is forced
  /// empty regardless of its neighbours. The entry block (forward) and
  /// successor-less blocks (backward) are always boundary for intersect
  /// problems; this adds to that set (e.g. blocks that cannot reach an exit
  /// in anticipability).
  const std::vector<uint8_t> *ExtraBoundary = nullptr;
  /// The transfer sets, indexed by BlockId. \p Gen is required, with
  /// exactly one of \p Preserve / \p Kill.
  const std::vector<BitVector> *Gen = nullptr;
  const std::vector<BitVector> *Preserve = nullptr;
  const std::vector<BitVector> *Kill = nullptr;
};

/// Solves \p P over the reachable blocks of \p G.
///
/// \p MeetSets receives the meet-side fixpoint (IN for forward problems,
/// OUT for backward); \p FlowSets the flow-side one (OUT forward, IN
/// backward). Both are (re)initialized by the solver — all-ones for
/// intersect problems, all-zero for union — and unreachable blocks keep
/// that initial value, matching the historical solvers.
DataflowStats solveBitDataflow(const CFG &G, const BitDataflowProblem &P,
                               std::vector<BitVector> &MeetSets,
                               std::vector<BitVector> &FlowSets);

} // namespace epre

#endif // EPRE_ANALYSIS_DATAFLOW_H
