//===- analysis/CFG.cpp ---------------------------------------------------===//

#include "analysis/CFG.h"

#include <algorithm>

using namespace epre;

CFG CFG::compute(const Function &F) {
  CFG G;
  unsigned N = F.numBlocks();
  G.SuccBegin.assign(N + 1, 0);
  G.PredBegin.assign(N + 1, 0);
  G.RPONumber.assign(N, ~0u);

  F.forEachBlock([&](const BasicBlock &B) {
    G.SuccBegin[B.id() + 1] = B.successors().size();
  });
  for (unsigned B = 0; B < N; ++B)
    G.SuccBegin[B + 1] += G.SuccBegin[B];
  G.SuccEdges.resize(G.SuccBegin[N]);
  F.forEachBlock([&](const BasicBlock &B) {
    unsigned At = G.SuccBegin[B.id()];
    for (BlockId S : B.successors())
      G.SuccEdges[At++] = S;
  });

  // Iterative postorder DFS from the entry block. A visited block's
  // RPONumber is 0 until the numbering below overwrites it.
  std::vector<std::pair<BlockId, unsigned>> Stack;
  Stack.reserve(N);
  G.RPO.reserve(N);
  if (N != 0 && F.block(0)) {
    Stack.push_back({0, G.SuccBegin[0]});
    G.RPONumber[0] = 0;
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      if (Next < G.SuccBegin[B + 1]) {
        BlockId S = G.SuccEdges[Next++];
        if (!G.isReachable(S)) {
          G.RPONumber[S] = 0;
          Stack.push_back({S, G.SuccBegin[S]});
        }
      } else {
        G.RPO.push_back(B);
        Stack.pop_back();
      }
    }
  }
  std::reverse(G.RPO.begin(), G.RPO.end());
  for (unsigned I = 0; I < G.RPO.size(); ++I)
    G.RPONumber[G.RPO[I]] = I;

  // Predecessor lists hold reachable sources only, so analyses over the
  // reachable subgraph see a consistent picture. Filling them in source
  // order keeps each list sorted by block id.
  for (BlockId B : G.RPO)
    for (BlockId S : G.succs(B))
      ++G.PredBegin[S + 1];
  for (unsigned B = 0; B < N; ++B)
    G.PredBegin[B + 1] += G.PredBegin[B];
  G.PredEdges.resize(G.PredBegin[N]);
  std::vector<unsigned> Fill(G.PredBegin.begin(), G.PredBegin.end() - 1);
  for (BlockId B = 0; B < N; ++B)
    if (G.isReachable(B))
      for (BlockId S : G.succs(B))
        G.PredEdges[Fill[S]++] = B;
  return G;
}
