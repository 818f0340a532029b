//===- tests/SweepDataflow.h - Reference bit-vector dataflow ----*- C++ -*-===//
///
/// \file
/// The oracle for the optimizer's bit-vector fixpoints: a plain solver that
/// sweeps the reachable blocks in reverse postorder (forward problems) or
/// postorder (backward problems) until a full pass changes no set,
/// recomputing each block's meet from scratch and applying the transfer in
/// two passes. It checks PRE's AVAIL and ANT solves bit for bit
/// (tests/dataflow_test.cpp) and solves the dense liveness posing of
/// DenseLiveness.h, the oracle for the sparse liveness walk.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_SWEEPDATAFLOW_H
#define EPRE_TESTS_SWEEPDATAFLOW_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace epre::test {

/// One bit-vector dataflow system. The per-block transfer is
///
///   Flow = (Meet & Preserve) | Gen     (if \p Preserve is set), or
///   Flow = (Meet & ~Kill)    | Gen     (if \p Kill is set).
///
/// All-paths (intersection) problems start all-ones and force the meet
/// empty at boundary blocks: the entry block (forward), blocks without
/// successors (backward), blocks without meet-side neighbours, and the
/// blocks marked in \p ExtraBoundary. Any-path (union) problems start
/// all-zero, have no boundary, and fold \p MeetSeed into every meet.
struct SweepProblem {
  bool Forward = true;
  bool Union = false;
  unsigned NumBits = 0;
  const std::vector<BitVector> *MeetSeed = nullptr;    ///< by BlockId
  const std::vector<uint8_t> *ExtraBoundary = nullptr; ///< by BlockId
  const std::vector<BitVector> *Gen = nullptr;
  const std::vector<BitVector> *Preserve = nullptr;
  const std::vector<BitVector> *Kill = nullptr;
};

/// Solves \p P over the reachable blocks of \p G into \p MeetSets (IN for
/// forward problems, OUT for backward) and \p FlowSets (the other side).
/// Unreachable blocks keep the initial value. Returns the number of block
/// evaluations, sweeps times blocks.
inline unsigned solveBySweeping(const CFG &G, const SweepProblem &P,
                                std::vector<BitVector> &MeetSets,
                                std::vector<BitVector> &FlowSets) {
  const bool Intersect = !P.Union;
  MeetSets.assign(G.numBlockSlots(), BitVector(P.NumBits, Intersect));
  FlowSets = MeetSets;
  const std::vector<BlockId> Order = P.Forward ? G.rpo() : G.postorder();
  unsigned Evaluations = 0;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (BlockId B : Order) {
      ++Evaluations;
      std::span<const BlockId> Nbrs = P.Forward ? G.preds(B) : G.succs(B);
      bool Boundary = Intersect &&
                      (Nbrs.empty() || (P.Forward && B == G.rpo().front()) ||
                       (P.ExtraBoundary && (*P.ExtraBoundary)[B]));
      BitVector Meet(P.NumBits, Intersect && !Boundary);
      if (!Boundary) {
        if (P.Union && P.MeetSeed)
          Meet.unionWith((*P.MeetSeed)[B]);
        for (BlockId N : Nbrs) {
          if (Intersect)
            Meet.intersectWith(FlowSets[N]);
          else
            Meet.unionWith(FlowSets[N]);
        }
      }
      BitVector Flow = Meet;
      if (P.Preserve)
        Flow.intersectWith((*P.Preserve)[B]);
      else
        Flow.intersectWithComplement((*P.Kill)[B]);
      Flow.unionWith((*P.Gen)[B]);
      if (Meet != MeetSets[B] || Flow != FlowSets[B]) {
        MeetSets[B] = std::move(Meet);
        FlowSets[B] = std::move(Flow);
        Changed = true;
      }
    }
  }
  return Evaluations;
}

} // namespace epre::test

#endif // EPRE_TESTS_SWEEPDATAFLOW_H
