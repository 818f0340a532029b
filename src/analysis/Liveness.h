//===- analysis/Liveness.h - Global register liveness ------------*- C++ -*-===//
///
/// \file
/// Backward iterative liveness over registers. Phi-aware: a phi's operands
/// are uses at the end of the corresponding predecessor, and a phi's result
/// is defined at the top of its block.
///
/// Used for pruned SSA construction (live-in sets), dead code elimination,
/// and copy coalescing (interference). Solved on the shared worklist
/// dataflow engine (analysis/Dataflow.h).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_LIVENESS_H
#define EPRE_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "support/BitVector.h"

#include <vector>

namespace epre {

/// Per-block live-in/live-out register sets.
class Liveness {
public:
  static Liveness compute(const Function &F, const CFG &G);

  /// Registers live on entry to \p B (phi results of B excluded; a phi's
  /// result becomes live at the phi itself).
  const BitVector &liveIn(BlockId B) const { return LiveIn[B]; }

  /// Registers live on exit from \p B (includes values flowing into
  /// successors' phis from B).
  const BitVector &liveOut(BlockId B) const { return LiveOut[B]; }

  /// Registers with an upward-exposed use in \p B.
  const BitVector &upwardExposed(BlockId B) const { return UEVar[B]; }

  /// Registers defined (killed) in \p B. Together with upwardExposed this
  /// is the full transfer function, letting callers re-pose the live-range
  /// system to solveBitDataflow directly (e.g. solver benchmarks).
  const BitVector &kill(BlockId B) const { return Kill[B]; }

  /// True if register \p R is live on entry to \p B.
  bool isLiveIn(Reg R, BlockId B) const { return LiveIn[B].test(R); }

  /// Cost counters of the dataflow solve that produced these sets.
  const DataflowStats &solveStats() const { return SolveStats; }

private:
  std::vector<BitVector> LiveIn, LiveOut, UEVar, Kill;
  DataflowStats SolveStats;
};

} // namespace epre

#endif // EPRE_ANALYSIS_LIVENESS_H
