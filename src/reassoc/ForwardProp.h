//===- reassoc/ForwardProp.h - Forward propagation (§3.1) --------*- C++ -*-===//
///
/// \file
/// Copies expressions forward to their uses, building per-use expression
/// trees, and eliminates phi nodes by inserting copies at predecessors.
///
/// After this pass:
///  - the function is out of SSA form;
///  - "variable names" (former phi targets) are defined only by copies;
///  - every expression is computed in the block that uses it, immediately
///    before the using instruction (store, load address, branch condition,
///    return value, or phi-input copy) — the property PRE's correctness
///    requires (paper §5.1);
///  - loads and their results stay in place (no alias analysis; the load's
///    result is a rank-bearing leaf, like the paper's procedure-modified
///    variables).
///
/// Forward propagation duplicates code (paper Table 2 measures the factor)
/// and may move expressions into loops (§4.2); PRE is expected to undo the
/// damage and more.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_REASSOC_FORWARDPROP_H
#define EPRE_REASSOC_FORWARDPROP_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"
#include "reassoc/Ranks.h"

namespace epre {

/// Forward propagation behind the unified pass-entry API. Runs on \p F in
/// SSA form with critical edges split; extends the RankMap given at
/// construction with the ranks of cloned registers. Invalidates the CFG
/// when it splits entering edges; preserves its shape otherwise.
///
/// Counters: fwdprop.ops_before, fwdprop.ops_after, fwdprop.phis_removed,
/// fwdprop.trees_cloned.
class ForwardPropPass {
public:
  static constexpr const char *name() { return "fwdprop"; }
  explicit ForwardPropPass(RankMap &Ranks) : Ranks(&Ranks) {}
  void run(Function &F, PassContext &Ctx);

  /// Deterministic cost of the most recent run: tree nodes cloned, tree
  /// nodes visited for their leaves, and reader edges the export order
  /// examines.
  uint64_t lastWork() const { return LastWork; }

private:
  RankMap *Ranks;
  uint64_t LastWork = 0;
};

} // namespace epre

#endif // EPRE_REASSOC_FORWARDPROP_H
