//===- analysis/EdgeSplitting.h - Block-graph surgery ------------*- C++ -*-===//
///
/// \file
/// Splits critical edges (from a block with multiple successors to a block
/// with multiple predecessors) by inserting empty forwarding blocks. PRE's
/// edge placement and SSA destruction both require split edges. Also erases
/// blocks unreachable from entry, which SSA construction and CFG
/// simplification both need.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_EDGESPLITTING_H
#define EPRE_ANALYSIS_EDGESPLITTING_H

#include "ir/Function.h"

namespace epre {

class CFG;

/// Splits the edge \p From -> \p To by inserting a block that branches to
/// \p To; rewrites the terminator of \p From and any phis in \p To.
/// Returns the new block.
BasicBlock *splitEdge(Function &F, BlockId From, BlockId To);

/// Splits every critical edge in \p F. Returns the number of edges split.
unsigned splitCriticalEdges(Function &F);

/// Erases the blocks \p G (computed on \p F as it stands) reports
/// unreachable, and the phi inputs arriving from them. Returns true when
/// blocks were erased; \p G is stale then.
bool removeUnreachableBlocks(Function &F, const CFG &G);

} // namespace epre

#endif // EPRE_ANALYSIS_EDGESPLITTING_H
