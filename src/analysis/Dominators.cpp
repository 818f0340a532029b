//===- analysis/Dominators.cpp --------------------------------------------===//
///
/// Implements "A Simple, Fast Dominance Algorithm" (Cooper, Harvey, and
/// Kennedy): iterate intersect() over the reverse postorder until stable.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>

using namespace epre;

DominatorTree DominatorTree::compute(const Function &F, const CFG &G) {
  DominatorTree DT;
  unsigned N = F.numBlocks();
  DT.IDom.assign(N, InvalidBlock);
  const std::vector<BlockId> &RPO = G.rpo();
  assert(!RPO.empty() && "function has no reachable blocks");

  DT.IDom[RPO[0]] = RPO[0];

  auto intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (G.rpoNumber(A) > G.rpoNumber(B))
        A = DT.IDom[A];
      while (G.rpoNumber(B) > G.rpoNumber(A))
        B = DT.IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I < RPO.size(); ++I) {
      BlockId B = RPO[I];
      BlockId NewIDom = InvalidBlock;
      for (BlockId P : G.preds(B)) {
        if (DT.IDom[P] == InvalidBlock)
          continue; // not yet processed
        NewIDom = (NewIDom == InvalidBlock) ? P : intersect(P, NewIDom);
      }
      assert(NewIDom != InvalidBlock && "reachable block with no ready pred");
      if (DT.IDom[B] != NewIDom) {
        DT.IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }

  // Dominator-tree children and a DFS in/out numbering for O(1) queries.
  DT.Children.resize(N);
  for (BlockId B : RPO)
    if (B != RPO[0])
      DT.Children[DT.IDom[B]].push_back(B);

  DT.DfsIn.assign(N, 0);
  DT.DfsOut.assign(N, 0);
  unsigned Clock = 1;
  DT.walk(
      RPO[0], [&](BlockId B) { DT.DfsIn[B] = Clock++; },
      [&](BlockId B) { DT.DfsOut[B] = Clock++; });
  return DT;
}

DominanceFrontier DominanceFrontier::compute(const Function &F, const CFG &G,
                                             const DominatorTree &DT) {
  DominanceFrontier DFR;
  DFR.DF.resize(F.numBlocks());
  for (BlockId B : G.rpo()) {
    if (G.preds(B).size() < 2)
      continue;
    for (BlockId P : G.preds(B)) {
      BlockId Runner = P;
      while (Runner != DT.idom(B)) {
        auto &Row = DFR.DF[Runner];
        if (std::find(Row.begin(), Row.end(), B) == Row.end())
          Row.push_back(B);
        Runner = DT.idom(Runner);
      }
    }
  }
  return DFR;
}
