//===- analysis/Dominators.h - Dominator tree & frontiers --------*- C++ -*-===//
///
/// \file
/// Immediate dominators via the Cooper–Harvey–Kennedy iterative algorithm,
/// dominance queries, and dominance frontiers (used for SSA construction).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_DOMINATORS_H
#define EPRE_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"

#include <vector>

namespace epre {

/// Dominator tree over the reachable blocks of a function.
class DominatorTree {
public:
  static DominatorTree compute(const Function &F, const CFG &G);

  /// Immediate dominator of \p B; the entry block's idom is itself.
  BlockId idom(BlockId B) const { return IDom[B]; }

  /// True if \p A dominates \p B (reflexive).
  bool dominates(BlockId A, BlockId B) const {
    return DfsIn[A] <= DfsIn[B] && DfsOut[B] <= DfsOut[A];
  }

  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(BlockId A, BlockId B) const {
    return A != B && dominates(A, B);
  }

  const std::vector<BlockId> &children(BlockId B) const {
    return Children[B];
  }

  /// Walks the subtree under \p Root depth first: \p Enter(B) before B's
  /// children, \p Exit(B) after them. The stack is explicit, since the
  /// tree is as deep as the longest chain of blocks in the function.
  template <typename EnterFn, typename ExitFn>
  void walk(BlockId Root, EnterFn Enter, ExitFn Exit) const {
    // Each frame is a block and the index of its next child to visit.
    std::vector<std::pair<BlockId, unsigned>> Stack;
    Enter(Root);
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      if (Next < Children[B].size()) {
        BlockId C = Children[B][Next++];
        Enter(C);
        Stack.push_back({C, 0});
        continue;
      }
      Exit(B);
      Stack.pop_back();
    }
  }

private:
  std::vector<BlockId> IDom;
  std::vector<std::vector<BlockId>> Children;
  std::vector<unsigned> DfsIn, DfsOut;
};

/// Dominance frontiers: DF(b) = blocks where b's dominance ends.
class DominanceFrontier {
public:
  static DominanceFrontier compute(const Function &F, const CFG &G,
                                   const DominatorTree &DT);

  const std::vector<BlockId> &frontier(BlockId B) const { return DF[B]; }

private:
  std::vector<std::vector<BlockId>> DF;
};

} // namespace epre

#endif // EPRE_ANALYSIS_DOMINATORS_H
