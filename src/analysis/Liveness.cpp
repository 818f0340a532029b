//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

using namespace epre;

Liveness Liveness::compute(const Function &F, const CFG &G) {
  Liveness L;
  unsigned NB = F.numBlocks();
  unsigned NR = F.numRegs();
  L.UEVar.assign(NB, BitVector(NR));
  L.Kill.assign(NB, BitVector(NR));

  // PhiUse[p] = registers used by successors' phis along the edge from p.
  std::vector<BitVector> PhiUse(NB, BitVector(NR));

  F.forEachBlock([&](const BasicBlock &B) {
    BitVector &UE = L.UEVar[B.id()];
    BitVector &K = L.Kill[B.id()];
    for (const Instruction &I : B.Insts) {
      if (I.isPhi()) {
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          PhiUse[I.PhiBlocks[J]].set(I.Operands[J]);
      } else {
        for (Reg R : I.Operands)
          if (!K.test(R))
            UE.set(R);
      }
      if (I.hasDst())
        K.set(I.Dst);
    }
  });

  // LiveOut = PhiUse + union of successors' LiveIn;
  // LiveIn  = (LiveOut - Kill) + UEVar.
  BitDataflowProblem P;
  P.Dir = DataflowDirection::Backward;
  P.Meet = MeetOp::Union;
  P.NumBits = NR;
  P.MeetSeed = &PhiUse;
  P.Gen = &L.UEVar;
  P.Kill = &L.Kill;
  L.SolveStats = solveBitDataflow(G, P, L.LiveOut, L.LiveIn);
  return L;
}
