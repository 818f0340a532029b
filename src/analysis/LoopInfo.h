//===- analysis/LoopInfo.h - Natural loops and nesting -----------*- C++ -*-===//
///
/// \file
/// Natural loop detection from back edges, loop membership, and per-block
/// nesting depth. Rank analysis uses depths only as a sanity oracle (ranks
/// come from reverse postorder); the loop info is also used by tests and by
/// workload characterization in the benchmark harness.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_LOOPINFO_H
#define EPRE_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"

#include <vector>

namespace epre {

/// One natural loop: a header plus the body blocks (header included).
struct Loop {
  BlockId Header = InvalidBlock;
  std::vector<BlockId> Blocks;       ///< sorted by id, includes the header
  std::vector<unsigned> SubLoops;    ///< indices of immediately nested loops
  int Parent = -1;                   ///< index of enclosing loop, -1 if top
  unsigned Depth = 1;                ///< 1 for outermost
};

/// All natural loops of a function, merged per header.
class LoopInfo {
public:
  static LoopInfo compute(const Function &F, const CFG &G,
                          const DominatorTree &DT);

  const std::vector<Loop> &loops() const { return Loops; }

  /// Nesting depth of \p B: 0 outside any loop.
  unsigned loopDepth(BlockId B) const {
    return B < Depth.size() ? Depth[B] : 0;
  }

private:
  std::vector<Loop> Loops;
  std::vector<unsigned> Depth;
};

} // namespace epre

#endif // EPRE_ANALYSIS_LOOPINFO_H
