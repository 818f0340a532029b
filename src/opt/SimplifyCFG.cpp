//===- opt/SimplifyCFG.cpp ------------------------------------------------===//

#include "opt/SimplifyCFG.h"

#include "analysis/CFG.h"
#include "analysis/EdgeSplitting.h"
#include "ssa/ParallelCopy.h"

#include <cassert>
#include <span>

using namespace epre;

namespace {

/// Rewrites `cbr` with a locally-constant condition to `br`. Returns true
/// on change.
bool foldBranches(Function &F) {
  bool Changed = false;
  F.forEachBlock([&](BasicBlock &B) {
    if (!B.hasTerminator() || B.terminator().Op != Opcode::Cbr)
      return;
    Instruction &T = B.terminator();

    // Constant condition defined by a loadi in the same block.
    Reg Cond = T.Operands[0];
    for (auto It = B.Insts.rbegin() + 1; It != B.Insts.rend(); ++It) {
      if (It->Dst != Cond)
        continue;
      if (It->Op == Opcode::LoadI) {
        BlockId Taken = It->IImm != 0 ? T.Succs[0] : T.Succs[1];
        BlockId NotTaken = It->IImm != 0 ? T.Succs[1] : T.Succs[0];
        removePhiEntries(*F.block(NotTaken), B.id());
        T = Instruction::makeBr(Taken);
        F.bumpVersion(); // terminator rewrite: CFG edge removed
        Changed = true;
      }
      break;
    }
  });
  return Changed;
}

/// Converts phis with a single incoming value into copies (sequenced as a
/// parallel copy group, since phis read their inputs simultaneously).
bool collapseSingleInputPhis(Function &F) {
  bool Changed = false;
  F.forEachBlock([&](BasicBlock &B) {
    unsigned NumPhis = B.firstNonPhi();
    if (NumPhis == 0)
      return;
    bool AllSingle = true;
    for (unsigned I = 0; I < NumPhis; ++I)
      if (B.Insts[I].Operands.size() != 1)
        AllSingle = false;
    if (!AllSingle)
      return;
    std::vector<PendingCopy> Copies;
    for (unsigned I = 0; I < NumPhis; ++I)
      Copies.push_back({B.Insts[I].Dst, B.Insts[I].Operands[0]});
    std::vector<Instruction> Seq;
    sequenceCopyInstructions(F, Copies, [&](Instruction &&C) {
      Seq.push_back(std::move(C));
    });
    B.Insts.erase(B.Insts.begin(), B.Insts.begin() + NumPhis);
    B.Insts.insert(B.Insts.begin(), std::make_move_iterator(Seq.begin()),
                   std::make_move_iterator(Seq.end()));
    Changed = true;
  });
  return Changed;
}

/// Bypasses blocks that contain only `br ^t`. \p G is the graph before the
/// sweep, and every retarget makes it staler. Without phis in the target a
/// stale predecessor list is harmless: it can only name a block the sweep
/// already bypassed, which is dead. With phis it is not, because the
/// target's phi entries move to the listed predecessors; such a block
/// waits for the next round when its predecessors, or their successors,
/// changed earlier in this sweep.
bool threadForwardingBlocks(Function &F, const CFG &G) {
  std::vector<uint8_t> Moved(G.numBlockSlots(), 0); // edges changed
  bool Changed = false;
  F.forEachBlock([&](BasicBlock &B) {
    if (B.id() == 0 || B.Insts.size() != 1 ||
        B.terminator().Op != Opcode::Br)
      return;
    BlockId T = B.terminator().Succs[0];
    if (T == B.id())
      return; // self loop
    BasicBlock *TB = F.block(T);
    bool TargetHasPhis = TB->firstNonPhi() != 0;
    std::span<const BlockId> Preds = G.preds(B.id());
    if (Preds.empty())
      return; // unreachable; another rule removes it
    if (TargetHasPhis) {
      if (Moved[B.id()])
        return;
      for (BlockId P : Preds) {
        if (Moved[P])
          return;
        // Two edges into T would need their phi entries merged.
        for (BlockId S : G.succs(P))
          if (S == T)
            return;
      }
    }
    // Retarget each predecessor. One that also branched straight to T
    // now names it twice; the check above allows that only when T has no
    // phis.
    for (BlockId P : Preds) {
      for (BlockId &S : F.block(P)->terminator().Succs)
        if (S == B.id())
          S = T;
      [[maybe_unused]] bool Folded = foldEqualTargetBranch(F, *F.block(P));
      assert(Folded && "threading merged edges with different phi values");
      Moved[P] = 1;
    }
    Moved[T] = 1;
    F.bumpVersion(); // terminator edits: CFG edges moved
    // Re-attribute phi entries from B to the predecessors.
    for (Instruction &I : TB->Insts) {
      if (!I.isPhi())
        break;
      for (int J = int(I.Operands.size()) - 1; J >= 0; --J) {
        if (I.PhiBlocks[J] != B.id())
          continue;
        Reg V = I.Operands[J];
        I.Operands.erase(I.Operands.begin() + J);
        I.PhiBlocks.erase(I.PhiBlocks.begin() + J);
        for (BlockId P : Preds) {
          I.Operands.push_back(V);
          I.PhiBlocks.push_back(P);
        }
      }
    }
    Changed = true;
  });
  return Changed;
}

/// Merges one block into its unique successor when it is that successor's
/// unique predecessor; \p G is stale after a merge.
bool mergeStraightLine(Function &F, const CFG &G) {
  bool Changed = false;
  F.forEachBlock([&](BasicBlock &B) {
    if (Changed)
      return;
    if (!F.block(B.id()) || B.terminator().Op != Opcode::Br)
      return;
    BlockId S = B.terminator().Succs[0];
    if (S == 0 || S == B.id())
      return;
    if (G.preds(S).size() != 1)
      return;
    BasicBlock *SB = F.block(S);
    if (SB->firstNonPhi() != 0)
      return; // collapseSingleInputPhis handles these first
    B.Insts.pop_back(); // drop the br
    for (Instruction &I : SB->Insts)
      B.Insts.push_back(std::move(I));
    // Successors of S now see B as the predecessor.
    for (BlockId NS : B.successors()) {
      for (Instruction &I : F.block(NS)->Insts) {
        if (!I.isPhi())
          break;
        for (BlockId &P : I.PhiBlocks)
          if (P == S)
            P = B.id();
      }
    }
    F.eraseBlock(S);
    Changed = true;
  });
  return Changed;
}

bool simplifyCFGImpl(Function &F) {
  CFG G = CFG::compute(F);
  // Passes a sub-step's result through, recomputing G when the step
  // changed the block graph.
  auto Refresh = [&](bool GraphChanged) {
    if (GraphChanged)
      G = CFG::compute(F);
    return GraphChanged;
  };
  bool EverChanged = false;
  bool Changed = true;
  while (Changed) {
    // Unreachable blocks go first: they may hold branches to blocks that a
    // previous pass or iteration erased.
    Changed = Refresh(removeUnreachableBlocks(F, G));
    Changed |= Refresh(foldBranches(F));
    Changed |= Refresh(removeUnreachableBlocks(F, G));
    // Phis become copies; no block or edge changes.
    Changed |= collapseSingleInputPhis(F);
    if (Refresh(threadForwardingBlocks(F, G))) {
      Refresh(removeUnreachableBlocks(F, G));
      Changed = true;
    }
    while (Refresh(mergeStraightLine(F, G)))
      Changed = true;
    EverChanged |= Changed;
  }
  return EverChanged;
}

} // namespace

void epre::SimplifyCFGPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  Ctx.addStat("changed", simplifyCFGImpl(F));
}

void epre::UnreachableBlockElimPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  Ctx.addStat("changed", removeUnreachableBlocks(F, CFG::compute(F)));
}
