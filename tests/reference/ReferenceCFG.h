//===- reference/ReferenceCFG.h - Nested-vector CFG oracle ------*- C++ -*-===//
///
/// \file
/// The test-side reference for CFG::compute: the original construction with
/// one std::vector of predecessors and one of successors per block. cfg_test
/// requires the flat CFG to report the same lists, in the same order, and
/// the same reverse postorder.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_REFERENCE_CFG_H
#define EPRE_TESTS_REFERENCE_CFG_H

#include "ir/Function.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace epre {

struct ReferenceCFG {
  std::vector<std::vector<BlockId>> Preds;
  std::vector<std::vector<BlockId>> Succs;
  std::vector<BlockId> RPO;
  std::vector<unsigned> RPONumber;

  static ReferenceCFG compute(const Function &F) {
    ReferenceCFG G;
    unsigned N = F.numBlocks();
    G.Preds.resize(N);
    G.Succs.resize(N);
    G.RPONumber.assign(N, ~0u);

    F.forEachBlock([&](const BasicBlock &B) {
      for (BlockId S : B.successors()) {
        G.Succs[B.id()].push_back(S);
        G.Preds[S].push_back(B.id());
      }
    });

    // Iterative postorder DFS from the entry block.
    std::vector<uint8_t> State(N, 0); // 0 unvisited, 1 on stack, 2 done
    std::vector<std::pair<BlockId, unsigned>> Stack;
    std::vector<BlockId> Post;
    if (N != 0 && F.block(0)) {
      Stack.push_back({0, 0});
      State[0] = 1;
      while (!Stack.empty()) {
        auto &[B, NextSucc] = Stack.back();
        if (NextSucc < G.Succs[B].size()) {
          BlockId S = G.Succs[B][NextSucc++];
          if (State[S] == 0) {
            State[S] = 1;
            Stack.push_back({S, 0});
          }
        } else {
          Post.push_back(B);
          State[B] = 2;
          Stack.pop_back();
        }
      }
    }
    G.RPO.assign(Post.rbegin(), Post.rend());
    for (unsigned I = 0; I < G.RPO.size(); ++I)
      G.RPONumber[G.RPO[I]] = I;

    // Drop edges from unreachable blocks out of the pred lists.
    for (unsigned B = 0; B < N; ++B) {
      auto &P = G.Preds[B];
      P.erase(std::remove_if(P.begin(), P.end(),
                             [&](BlockId X) { return G.RPONumber[X] == ~0u; }),
              P.end());
    }
    return G;
  }
};

} // namespace epre

#endif // EPRE_TESTS_REFERENCE_CFG_H
