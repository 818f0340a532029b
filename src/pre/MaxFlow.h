//===- pre/MaxFlow.h - Dinic max-flow for speculative PRE -------*- C++ -*-===//
///
/// \file
/// The max-flow / min-cut solver behind speculative placement: one network
/// per expression, whose capacities are profiled execution counts.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_PRE_MAXFLOW_H
#define EPRE_PRE_MAXFLOW_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace epre {

/// Dinic max-flow over one expression's network (Speculative strategy).
/// Arcs are stored paired so Arcs[I ^ 1] is the reverse arc; capacities
/// are profiled execution counts, far below the Unbounded sentinel, so
/// sums never overflow. One instance serves every expression of a run:
/// reset() starts a new network in the storage of the previous one.
class MaxFlow {
public:
  static constexpr uint64_t Unbounded = uint64_t(1) << 62;

  void reset(unsigned NumNodes) {
    Arcs.clear();
    Head.assign(NumNodes, -1);
    Level.resize(NumNodes);
    It.resize(NumNodes);
  }

  /// Arcs added since the last reset (reverse arcs not counted).
  unsigned numArcs() const { return unsigned(Arcs.size() / 2); }

  void addArc(unsigned From, unsigned To, uint64_t Cap) {
    unsigned Id = unsigned(Arcs.size());
    Arcs.push_back({To, Head[From], Cap});
    Head[From] = int(Id);
    Arcs.push_back({From, Head[To], 0});
    Head[To] = int(Id + 1);
  }

  uint64_t solve(unsigned S, unsigned T) {
    uint64_t Flow = 0;
    while (bfs(S, T)) {
      It = Head;
      while (uint64_t Pushed = dfs(S, T, Unbounded))
        Flow += Pushed;
    }
    return Flow;
  }

  /// After solve(): fills \p Reach with the source side of the minimum cut
  /// (residual reachability from \p S). An original arc (u,v) is in the
  /// cut iff u is on the source side and v is not. Every maximum flow
  /// leaves the same residual reachability, so the side does not depend on
  /// the order the arcs were added in.
  void sourceSide(unsigned S, std::vector<char> &Reach) {
    Reach.assign(Head.size(), 0);
    Queue.assign(1, S);
    Reach[S] = 1;
    for (size_t Q = 0; Q < Queue.size(); ++Q)
      for (int A = Head[Queue[Q]]; A != -1; A = Arcs[A].Next)
        if (Arcs[A].Cap > 0 && !Reach[Arcs[A].To]) {
          Reach[Arcs[A].To] = 1;
          Queue.push_back(Arcs[A].To);
        }
  }

private:
  struct Arc {
    unsigned To;
    int Next;
    uint64_t Cap; ///< remaining (residual) capacity
  };

  bool bfs(unsigned S, unsigned T) {
    std::fill(Level.begin(), Level.end(), -1);
    Queue.assign(1, S);
    Level[S] = 0;
    for (size_t Q = 0; Q < Queue.size(); ++Q) {
      unsigned U = Queue[Q];
      for (int A = Head[U]; A != -1; A = Arcs[A].Next)
        if (Arcs[A].Cap > 0 && Level[Arcs[A].To] < 0) {
          Level[Arcs[A].To] = Level[U] + 1;
          Queue.push_back(Arcs[A].To);
        }
    }
    return Level[T] >= 0;
  }

  uint64_t dfs(unsigned U, unsigned T, uint64_t Limit) {
    if (U == T)
      return Limit;
    for (int &A = It[U]; A != -1; A = Arcs[A].Next) {
      Arc &E = Arcs[A];
      if (E.Cap == 0 || Level[E.To] != Level[U] + 1)
        continue;
      if (uint64_t Pushed = dfs(E.To, T, std::min(Limit, E.Cap))) {
        E.Cap -= Pushed;
        Arcs[A ^ 1].Cap += Pushed;
        return Pushed;
      }
    }
    return 0;
  }

  std::vector<Arc> Arcs;
  std::vector<int> Head;
  std::vector<int> Level;
  std::vector<int> It;
  std::vector<unsigned> Queue; ///< BFS queue, reused across calls
};

} // namespace epre

#endif // EPRE_PRE_MAXFLOW_H
