//===- opt/ConstantPropagation.h - Global constant propagation ---*- C++ -*-===//
///
/// \file
/// Conditional constant propagation in the style of Wegman & Zadeck,
/// formulated over per-block register lattices so it runs on code in or out
/// of SSA form. Branches on discovered constants prune infeasible edges
/// during the analysis, and are folded to unconditional branches in the
/// rewrite.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_OPT_CONSTANTPROPAGATION_H
#define EPRE_OPT_CONSTANTPROPAGATION_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

/// Sparse conditional constant propagation behind the unified pass-entry
/// API. Rewrites instructions computing constants to immediate loads and
/// folds conditional branches on constants; dead code and unreachable
/// blocks are left for DCE / SimplifyCFG.
///
/// Counters: sccp.folds, sccp.branches_folded, sccp.changed.
/// Remarks: Fold per rewritten instruction and folded branch.
class SCCPPass {
public:
  static constexpr const char *name() { return "sccp"; }

  void run(Function &F, PassContext &Ctx);

  /// Deterministic cost of the most recent run: lattice cells loaded or
  /// met, instructions evaluated, and the liveness walk that sized the
  /// rows.
  uint64_t lastWork() const { return LastWork; }

private:
  uint64_t LastWork = 0;
};

} // namespace epre

#endif // EPRE_OPT_CONSTANTPROPAGATION_H
