//===- analysis/Dataflow.cpp ----------------------------------------------===//

#include "analysis/Dataflow.h"

#include <cassert>

using namespace epre;

namespace {

/// FIFO worklist over block ids with membership dedup: pushing a block that
/// is already queued is a no-op, so the queue never holds more than one
/// entry per block and the ring buffer can be sized once, up front.
class BlockQueue {
public:
  explicit BlockQueue(unsigned NumSlots)
      : Ring(NumSlots + 1), InQueue(NumSlots, 0) {}

  bool empty() const { return Count == 0; }

  void push(BlockId B) {
    if (InQueue[B])
      return;
    InQueue[B] = 1;
    Ring[Tail] = B;
    Tail = (Tail + 1) % Ring.size();
    ++Count;
  }

  BlockId pop() {
    assert(Count != 0 && "pop from empty queue");
    BlockId B = Ring[Head];
    Head = (Head + 1) % Ring.size();
    InQueue[B] = 0;
    --Count;
    return B;
  }

private:
  std::vector<BlockId> Ring;
  std::vector<uint8_t> InQueue;
  size_t Head = 0, Tail = 0, Count = 0;
};

/// Shared helpers binding a problem to a CFG: neighbour lists, boundary
/// classification, and the meet itself.
struct ProblemView {
  const CFG &G;
  const BitDataflowProblem &P;

  bool Forward() const { return P.Dir == DataflowDirection::Forward; }

  /// Blocks whose flow-side sets feed this block's meet.
  const std::vector<BlockId> &meetNeighbors(BlockId B) const {
    return Forward() ? G.preds(B) : G.succs(B);
  }

  /// Blocks whose meets consume this block's flow-side set.
  const std::vector<BlockId> &flowNeighbors(BlockId B) const {
    return Forward() ? G.succs(B) : G.preds(B);
  }

  /// Intersect problems force the meet-side set of boundary blocks empty:
  /// the entry block (forward), exit blocks (backward), plus any
  /// caller-supplied extras. Union problems have no boundary — the empty
  /// meet is already the identity.
  bool isBoundary(BlockId B) const {
    if (P.Meet != MeetOp::Intersect)
      return false;
    if (Forward() ? B == G.rpo().front() : G.succs(B).empty())
      return true;
    return P.ExtraBoundary && (*P.ExtraBoundary)[B];
  }

  /// Returns the meet-side set for \p B without copying when it is already
  /// materialized somewhere: the shared empty vector for boundary blocks, a
  /// sole neighbour's flow set, or the bare seed. Falls back to computing
  /// the meet into \p S.
  const BitVector *meetSource(BlockId B, const std::vector<BitVector> &FlowSets,
                              BitVector &S, const BitVector &Empty,
                              DataflowStats &Stats, uint64_t W) const {
    const std::vector<BlockId> &Nbrs = meetNeighbors(B);
    if (P.Meet == MeetOp::Intersect) {
      if (isBoundary(B) || Nbrs.empty())
        return &Empty;
      if (Nbrs.size() == 1)
        return &FlowSets[Nbrs[0]];
    } else if (!P.MeetSeed) {
      if (Nbrs.empty())
        return &Empty;
      if (Nbrs.size() == 1)
        return &FlowSets[Nbrs[0]];
    } else if (Nbrs.empty()) {
      return &(*P.MeetSeed)[B];
    }
    Stats.WordsTouched += W * meetInto(B, FlowSets, S);
    return &S;
  }

  /// Computes the meet for \p B into \p S (any prior contents discarded).
  /// Returns the number of whole-vector kernel passes performed.
  unsigned meetInto(BlockId B, const std::vector<BitVector> &FlowSets,
                    BitVector &S) const {
    const std::vector<BlockId> &Nbrs = meetNeighbors(B);
    if (P.Meet == MeetOp::Intersect) {
      if (isBoundary(B) || Nbrs.empty()) {
        S.resetAll();
        return 1;
      }
      S.assignFrom(FlowSets[Nbrs[0]]);
      for (unsigned I = 1; I < Nbrs.size(); ++I)
        S.intersectWith(FlowSets[Nbrs[I]]);
      return unsigned(Nbrs.size());
    }
    // Union: start from the first source instead of clearing, saving a pass.
    unsigned Passes = 0;
    if (P.MeetSeed) {
      S.assignFrom((*P.MeetSeed)[B]);
      Passes = 1;
    } else if (!Nbrs.empty()) {
      S.assignFrom(FlowSets[Nbrs[0]]);
      Passes = 1;
    } else {
      S.resetAll();
      return 1;
    }
    for (unsigned I = P.MeetSeed ? 0 : 1; I < Nbrs.size(); ++I) {
      S.unionWith(FlowSets[Nbrs[I]]);
      ++Passes;
    }
    return Passes;
  }
};

DataflowStats solveWorklist(const ProblemView &V,
                            const std::vector<BlockId> &Order,
                            std::vector<BitVector> &MeetSets,
                            std::vector<BitVector> &FlowSets) {
  DataflowStats Stats;
  const uint64_t W = BitVector(V.P.NumBits).numWords();
  BitVectorScratch Scratch(V.P.NumBits);
  BitVector &S = Scratch.raw(0);
  const BitVector Empty(V.P.NumBits);
  BlockQueue Queue(V.G.numBlockSlots());
  std::vector<uint8_t> Visited(V.G.numBlockSlots(), 0);

  for (BlockId B : Order)
    Queue.push(B);

  while (!Queue.empty()) {
    BlockId B = Queue.pop();
    ++Stats.Iterations;
    if (!Visited[B]) {
      Visited[B] = 1;
      ++Stats.BlocksVisited;
    }

    // Only the flow-side sets feed other blocks' meets, so the meet-side
    // result is not stored here; it is materialized once after convergence.
    // The meet is read in place (no copy for single-source meets) and the
    // transfer is fused with the change-detecting store into one word pass
    // over the flow-side set. Safe even when the meet source aliases
    // FlowSets[B] (self loop): the kernel reads each word before writing.
    const BitVector *M = V.meetSource(B, FlowSets, S, Empty, Stats, W);
    bool FlowChanged =
        V.P.Preserve
            ? FlowSets[B].assignMeetPreserveGen(*M, (*V.P.Preserve)[B],
                                                (*V.P.Gen)[B])
            : FlowSets[B].assignMeetKillGen(*M, (*V.P.Kill)[B], (*V.P.Gen)[B]);
    Stats.WordsTouched += W;

    if (FlowChanged)
      for (BlockId N : V.flowNeighbors(B))
        Queue.push(N);
  }

  // Materialize the meet-side fixpoint from the converged flow sets — one
  // pass, exactly what the last evaluation of each block computed.
  for (BlockId B : Order)
    Stats.WordsTouched += W * V.meetInto(B, FlowSets, MeetSets[B]);
  return Stats;
}

} // namespace

DataflowStats epre::solveBitDataflow(const CFG &G, const BitDataflowProblem &P,
                                     std::vector<BitVector> &MeetSets,
                                     std::vector<BitVector> &FlowSets) {
  assert(P.Gen && (!!P.Preserve ^ !!P.Kill) &&
         "dataflow problem needs Gen and exactly one of Preserve/Kill");
  unsigned NB = G.numBlockSlots();
  bool InitOnes = P.Meet == MeetOp::Intersect;
  MeetSets.assign(NB, BitVector(P.NumBits, InitOnes));
  FlowSets.assign(NB, BitVector(P.NumBits, InitOnes));
  if (NB == 0)
    return {};

  ProblemView V{G, P};
  return solveWorklist(V, V.Forward() ? G.rpo() : G.postorder(), MeetSets,
                       FlowSets);
}
