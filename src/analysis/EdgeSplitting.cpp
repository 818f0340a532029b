//===- analysis/EdgeSplitting.cpp -----------------------------------------===//

#include "analysis/EdgeSplitting.h"

#include "analysis/CFG.h"

#include <cassert>

using namespace epre;

BasicBlock *epre::splitEdge(Function &F, BlockId From, BlockId To) {
  BasicBlock *FromB = F.block(From);
  BasicBlock *ToB = F.block(To);
  assert(FromB && ToB && "splitting edge between dead blocks");

  BasicBlock *Mid = F.addBlock(FromB->label() + "_" + ToB->label());
  Mid->Insts.push_back(Instruction::makeBr(To));

  for (BlockId &S : FromB->terminator().Succs)
    if (S == To)
      S = Mid->id();

  // Phis in To now receive the value via Mid.
  for (Instruction &I : ToB->Insts) {
    if (!I.isPhi())
      break;
    for (BlockId &P : I.PhiBlocks)
      if (P == From)
        P = Mid->id();
  }
  return Mid;
}

unsigned epre::splitCriticalEdges(Function &F) {
  // Collect the critical edges first: splitting invalidates the CFG view.
  CFG G = CFG::compute(F);
  std::vector<std::pair<BlockId, BlockId>> Critical;
  for (BlockId B : G.rpo()) {
    if (G.succs(B).size() < 2)
      continue;
    for (BlockId S : G.succs(B))
      if (G.preds(S).size() > 1)
        Critical.push_back({B, S});
  }
  for (auto [From, To] : Critical)
    splitEdge(F, From, To);
  return unsigned(Critical.size());
}

bool epre::removeUnreachableBlocks(Function &F, const CFG &G) {
  std::vector<BlockId> Dead;
  F.forEachBlock([&](BasicBlock &B) {
    if (!G.isReachable(B.id()))
      Dead.push_back(B.id());
  });
  if (Dead.empty())
    return false;
  for (BlockId D : Dead)
    F.eraseBlock(D);
  F.forEachBlock([&](BasicBlock &B) {
    for (Instruction &I : B.Insts) {
      if (!I.isPhi())
        break;
      for (int J = int(I.Operands.size()) - 1; J >= 0; --J) {
        if (G.isReachable(I.PhiBlocks[J]))
          continue;
        I.Operands.erase(I.Operands.begin() + J);
        I.PhiBlocks.erase(I.PhiBlocks.begin() + J);
      }
    }
  });
  return true;
}
