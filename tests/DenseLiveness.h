//===- tests/DenseLiveness.h - Dense liveness posing -----------*- C++ -*-===//
///
/// \file
/// The dense formulation of register liveness, kept test-side as the oracle
/// for the sparse per-variable walk in analysis/Liveness.cpp:
///
///   LiveOut(B) = PhiUse(B) + union of LiveIn(S) over successors S
///   LiveIn(B)  = (LiveOut(B) - Kill(B)) + UEVar(B)
///
/// UEVar(B) holds the registers a non-phi instruction reads before B
/// defines them; Kill(B) every register B defines (phi results included);
/// PhiUse(P) the registers successors' phis read along the edge out of P.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_DENSELIVENESS_H
#define EPRE_TESTS_DENSELIVENESS_H

#include "SweepDataflow.h"

#include "analysis/Liveness.h"
#include "ir/Function.h"

#include <vector>

namespace epre::test {

/// Per-block local sets of the dense liveness system. problem() refers to
/// them, so keep the object in place while a solve uses it.
struct DenseLiveness {
  std::vector<BitVector> UEVar, Kill, PhiUse;
  unsigned NumRegs = 0;

  explicit DenseLiveness(const Function &F) : NumRegs(F.numRegs()) {
    unsigned NB = F.numBlocks();
    UEVar.assign(NB, BitVector(NumRegs));
    Kill.assign(NB, BitVector(NumRegs));
    PhiUse.assign(NB, BitVector(NumRegs));
    F.forEachBlock([&](const BasicBlock &B) {
      BitVector &UE = UEVar[B.id()];
      BitVector &K = Kill[B.id()];
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
  }

  /// The backward union problem; the phi uses enter as the meet seed.
  SweepProblem problem() const {
    SweepProblem P;
    P.Forward = false;
    P.Union = true;
    P.NumBits = NumRegs;
    P.MeetSeed = &PhiUse;
    P.Gen = &UEVar;
    P.Kill = &Kill;
    return P;
  }
};

/// A sparse register list as a bit vector over \p NumRegs registers.
inline BitVector toBits(Liveness::RegList Regs, unsigned NumRegs) {
  BitVector V(NumRegs);
  for (Reg R : Regs)
    V.set(R);
  return V;
}

} // namespace epre::test

#endif // EPRE_TESTS_DENSELIVENESS_H
