//===- analysis/LoopInfo.cpp ----------------------------------------------===//

#include "analysis/LoopInfo.h"

#include <algorithm>
#include <map>
#include <set>

using namespace epre;

LoopInfo LoopInfo::compute(const Function &F, const CFG &G,
                           const DominatorTree &DT) {
  LoopInfo LI;
  unsigned N = F.numBlocks();
  LI.Depth.assign(N, 0);

  // Find back edges (tail -> header where header dominates tail) and flood
  // the loop body backwards from each tail; merge loops sharing a header.
  std::map<BlockId, std::set<BlockId>> BodyByHeader;
  for (BlockId B : G.rpo()) {
    for (BlockId S : G.succs(B)) {
      if (!DT.dominates(S, B))
        continue;
      BlockId Header = S;
      std::set<BlockId> &Body = BodyByHeader[Header];
      Body.insert(Header);
      std::vector<BlockId> Work;
      if (Body.insert(B).second)
        Work.push_back(B);
      while (!Work.empty()) {
        BlockId X = Work.back();
        Work.pop_back();
        if (X == Header)
          continue;
        for (BlockId P : G.preds(X))
          if (Body.insert(P).second)
            Work.push_back(P);
      }
    }
  }

  for (auto &[Header, Body] : BodyByHeader) {
    Loop L;
    L.Header = Header;
    L.Blocks.assign(Body.begin(), Body.end());
    LI.Loops.push_back(std::move(L));
  }

  // Nesting: loop A encloses loop B if A's body contains B's header and
  // A != B. Parent = smallest enclosing loop.
  unsigned NumLoops = unsigned(LI.Loops.size());
  for (unsigned I = 0; I < NumLoops; ++I) {
    int Best = -1;
    size_t BestSize = ~size_t(0);
    for (unsigned J = 0; J < NumLoops; ++J) {
      if (I == J)
        continue;
      const Loop &Outer = LI.Loops[J];
      if (!std::binary_search(Outer.Blocks.begin(), Outer.Blocks.end(),
                              LI.Loops[I].Header))
        continue;
      if (Outer.Blocks.size() < BestSize) {
        BestSize = Outer.Blocks.size();
        Best = int(J);
      }
    }
    LI.Loops[I].Parent = Best;
  }
  for (unsigned I = 0; I < NumLoops; ++I) {
    unsigned D = 1;
    for (int P = LI.Loops[I].Parent; P != -1; P = LI.Loops[P].Parent)
      ++D;
    LI.Loops[I].Depth = D;
    if (LI.Loops[I].Parent != -1)
      LI.Loops[LI.Loops[I].Parent].SubLoops.push_back(I);
  }

  // Per-block depth: that of the innermost loop containing the block.
  for (const Loop &L : LI.Loops)
    for (BlockId B : L.Blocks)
      LI.Depth[B] = std::max(LI.Depth[B], L.Depth);
  return LI;
}
