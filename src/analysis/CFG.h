//===- analysis/CFG.h - Control-flow graph view ------------------*- C++ -*-===//
///
/// \file
/// A derived view of a function's control flow: predecessor/successor lists
/// and a reverse-postorder numbering of the reachable blocks. Recompute after
/// any change to the block graph.
///
/// The edge lists are flat: one array of successors and one of
/// predecessors, each indexed by a per-block offset array, so computing the
/// view costs a handful of allocations whatever the block count.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_CFG_H
#define EPRE_ANALYSIS_CFG_H

#include "ir/Function.h"

#include <span>
#include <vector>

namespace epre {

/// Predecessors, successors, and orderings of the reachable CFG.
class CFG {
public:
  static CFG compute(const Function &F);

  /// Reachable predecessors of \p B, in block-id order.
  std::span<const BlockId> preds(BlockId B) const {
    return edges(PredEdges, PredBegin, B);
  }

  /// Successors of \p B in terminator order (also for unreachable blocks).
  std::span<const BlockId> succs(BlockId B) const {
    return edges(SuccEdges, SuccBegin, B);
  }

  /// Reachable blocks in reverse postorder (entry first).
  const std::vector<BlockId> &rpo() const { return RPO; }

  /// Reachable blocks in postorder.
  std::vector<BlockId> postorder() const {
    return std::vector<BlockId>(RPO.rbegin(), RPO.rend());
  }

  /// RPO index of \p B; blocks unreachable from entry report ~0u.
  unsigned rpoNumber(BlockId B) const { return RPONumber[B]; }

  bool isReachable(BlockId B) const { return RPONumber[B] != ~0u; }

  unsigned numBlockSlots() const { return unsigned(RPONumber.size()); }

private:
  static std::span<const BlockId> edges(const std::vector<BlockId> &Edges,
                                        const std::vector<unsigned> &Begin,
                                        BlockId B) {
    return {Edges.data() + Begin[B], Begin[B + 1] - Begin[B]};
  }

  /// Block B's edges are Edges[Begin[B]] .. Edges[Begin[B + 1] - 1].
  std::vector<unsigned> PredBegin, SuccBegin;
  std::vector<BlockId> PredEdges, SuccEdges;
  std::vector<BlockId> RPO;
  std::vector<unsigned> RPONumber;
};

} // namespace epre

#endif // EPRE_ANALYSIS_CFG_H
