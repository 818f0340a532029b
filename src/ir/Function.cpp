//===- ir/Function.cpp ----------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>

using namespace epre;

bool epre::foldEqualTargetBranch(Function &F, BasicBlock &B) {
  if (!B.hasTerminator() || B.terminator().Op != Opcode::Cbr ||
      B.terminator().Succs[0] != B.terminator().Succs[1])
    return true;
  BlockId Target = B.terminator().Succs[0];
  BasicBlock &S = *F.block(Target);
  // Each phi keeps its first entry from B. The edits go to copies, so a
  // disagreement leaves the function as it was.
  std::vector<Instruction> Phis(S.Insts.begin(),
                                S.Insts.begin() + S.firstNonPhi());
  for (Instruction &Phi : Phis) {
    Reg Kept = NoReg;
    for (unsigned J = 0; J < Phi.Operands.size();) {
      if (Phi.PhiBlocks[J] != B.id()) {
        ++J;
      } else if (Kept == NoReg) {
        Kept = Phi.Operands[J++];
      } else if (Phi.Operands[J] != Kept) {
        return false;
      } else {
        Phi.Operands.erase(Phi.Operands.begin() + J);
        Phi.PhiBlocks.erase(Phi.PhiBlocks.begin() + J);
      }
    }
  }
  std::move(Phis.begin(), Phis.end(), S.Insts.begin());
  B.terminator() = Instruction::makeBr(Target);
  F.bumpVersion(); // terminator rewrite: CFG edge removed
  return true;
}

void epre::removePhiEntries(BasicBlock &S, BlockId Pred) {
  for (unsigned P = 0, N = S.firstNonPhi(); P < N; ++P) {
    Instruction &Phi = S.Insts[P];
    for (unsigned J = 0; J < Phi.Operands.size(); ++J)
      if (Phi.PhiBlocks[J] == Pred) {
        Phi.Operands.erase(Phi.Operands.begin() + J);
        Phi.PhiBlocks.erase(Phi.PhiBlocks.begin() + J);
        break;
      }
  }
}
