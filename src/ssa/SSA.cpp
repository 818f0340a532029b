//===- ssa/SSA.cpp --------------------------------------------------------===//

#include "ssa/SSA.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/Liveness.h"

#include <algorithm>
#include <cassert>

using namespace epre;

namespace {

class SSABuilder {
public:
  SSABuilder(Function &F, const SSAOptions &Opts) : F(F), Opts(Opts) {}

  /// Rewrites the function, publishes the counters and returns lastWork().
  uint64_t run(PassContext &Ctx) {
#ifndef NDEBUG
    F.forEachBlock([](const BasicBlock &B) {
      assert(B.firstNonPhi() == 0 &&
             "SSA construction requires phi-free input; destroy SSA first");
    });
#endif
    // Construction requires a reachable-only CFG. Nothing below changes
    // the block graph, so G and DT stay valid to the end.
    G = CFG::compute(F);
    if (removeUnreachableBlocks(F, G))
      G = CFG::compute(F);
    if (!G.preds(0).empty()) {
      splitEntry();
      G = CFG::compute(F);
    }
    DT = DominatorTree::compute(F, G);
    DF = DominanceFrontier::compute(F, G, DT);

    insertEntryInits();
    Ctx.addStat("phis", insertPhis());
    rename();
    Ctx.addStat("copies_folded", NumCopiesFolded);
    return Work;
  }

private:
  /// Moves the entry block's code into a new block that the entry and
  /// every loop back to it branch to. A phi in the entry block itself would
  /// have no edge to take a value from on the function's first pass.
  void splitEntry() {
    BasicBlock *Entry = F.entry();
    BasicBlock *Header = F.addBlock(Entry->label() + "_loop");
    std::swap(Header->Insts, Entry->Insts);
    Entry->Insts.push_back(Instruction::makeBr(Header->id()));
    F.forEachBlock([&](BasicBlock &B) {
      for (BlockId &S : B.terminator().Succs)
        if (S == 0)
          S = Header->id();
    });
  }

  /// Zero-initializes any register that may be used before being defined,
  /// so renaming always finds a reaching definition, and leaves \c Live
  /// describing the function with the inits in place wherever a phi may go.
  void insertEntryInits() {
    Live = Liveness::compute(F, G);
    std::vector<Instruction> Inits;
    for (Reg R : Live.liveIn(0)) {
      if (F.isParam(R))
        continue;
      if (F.regType(R) == Type::F64)
        Inits.push_back(Instruction::makeLoadF(R, 0.0));
      else
        Inits.push_back(Instruction::makeLoadI(R, 0));
    }
    // The inits kill their registers at the top of the entry block, which
    // has no predecessors and so is in no dominance frontier: phi
    // placement never reads its live-in set.
    BasicBlock *Entry = F.entry();
    Entry->Insts.insert(Entry->Insts.begin(), Inits.begin(), Inits.end());
  }

  /// Places a phi for every variable at the live blocks of the iterated
  /// dominance frontier of its def sites, and returns how many. Each
  /// block's phis enter it in one insertion, highest variable first.
  unsigned insertPhis() {
    // Per register, the blocks defining it, ascending and without repeats.
    std::vector<std::vector<BlockId>> DefBlocks(F.numRegs());
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst() &&
            (DefBlocks[I.Dst].empty() || DefBlocks[I.Dst].back() != B.id()))
          DefBlocks[I.Dst].push_back(B.id());
    });
    // Walking the variables from the highest down lists each block's phi
    // variables in phi order.
    PhiVars.assign(F.numBlocks(), {});
    // Per block, the variable (plus one) whose walk last gave it a phi or
    // found it among the def sites.
    std::vector<Reg> HasPhi(F.numBlocks(), 0), IsDef(F.numBlocks(), 0);
    std::vector<BlockId> Pending;
    unsigned NumPhis = 0;
    for (Reg V = Reg(DefBlocks.size()); V-- > 0;) {
      const std::vector<BlockId> &Defs = DefBlocks[V];
      for (BlockId B : Defs)
        IsDef[B] = V + 1;
      Pending.assign(Defs.begin(), Defs.end());
      while (!Pending.empty()) {
        BlockId B = Pending.back();
        Pending.pop_back();
        for (BlockId D : DF.frontier(B)) {
          ++Work;
          if (HasPhi[D] == V + 1 || !Live.isLiveIn(V, D))
            continue;
          HasPhi[D] = V + 1;
          PhiVars[D].push_back(V);
          ++NumPhis;
          if (IsDef[D] != V + 1)
            Pending.push_back(D);
        }
      }
    }
    for (BlockId B = 0; B < F.numBlocks(); ++B) {
      const std::vector<Reg> &Vars = PhiVars[B];
      if (Vars.empty())
        continue;
      std::vector<Instruction> &Insts = F.block(B)->Insts;
      Work += Insts.size();
      Insts.insert(Insts.begin(), Vars.size(), Instruction());
      for (unsigned I = 0; I < Vars.size(); ++I)
        Insts[I] = Instruction::makePhi(F.regType(Vars[I]), Vars[I]);
    }
    return NumPhis;
  }

  Reg currentName(Reg V) {
    assert(!Stacks[V].empty() && "use of register with no reaching definition");
    return Stacks[V].back();
  }

  void pushName(Reg V, Reg Name, std::vector<Reg> &PopLog) {
    Stacks[V].push_back(Name);
    PopLog.push_back(V);
  }

  void rename() {
    // Indexed by the registers before renaming; the new names are only
    // ever pushed.
    Stacks.assign(F.numRegs(), {});
    // Parameters name themselves.
    for (Reg P : F.params())
      Stacks[P].push_back(P);

    // Each block's pushes go on one log; leaving the block pops back to
    // where its entry found the log.
    std::vector<Reg> PopLog;
    std::vector<size_t> PopMarks;
    DT.walk(
        G.rpo()[0],
        [&](BlockId B) {
          PopMarks.push_back(PopLog.size());
          renameBlock(B, PopLog);
        },
        [&](BlockId) {
          for (size_t I = PopLog.size(); I-- > PopMarks.back();)
            Stacks[PopLog[I]].pop_back();
          PopLog.resize(PopMarks.back());
          PopMarks.pop_back();
        });

    for (Reg P : F.params()) {
      assert(Stacks[P].size() == 1 && "unbalanced rename stack");
      (void)P;
    }
  }

  /// Renames block \p B's definitions and uses and fills its successors'
  /// phi inputs, logging each name pushed onto \p PopLog.
  void renameBlock(BlockId B, std::vector<Reg> &PopLog) {
    BasicBlock *BB = F.block(B);

    std::vector<Instruction> Kept;
    Kept.reserve(BB->Insts.size());
    unsigned PhiIdx = 0;
    for (Instruction &I : BB->Insts) {
      if (I.isPhi()) {
        Reg V = PhiVars[B][PhiIdx++];
        Reg NewName = F.makeReg(F.regType(V));
        I.Dst = NewName;
        pushName(V, NewName, PopLog);
        Kept.push_back(std::move(I));
        continue;
      }
      // Rewrite uses to the current version.
      for (Reg &U : I.Operands)
        U = currentName(U);
      Work += I.Operands.size();
      // Copy folding: x <- y makes y's current name the name of x.
      if (Opts.FoldCopies && I.isCopy()) {
        pushName(I.Dst, I.Operands[0], PopLog);
        ++NumCopiesFolded;
        continue; // the copy disappears
      }
      if (I.hasDst()) {
        Reg V = I.Dst;
        Reg NewName = F.makeReg(F.regType(V));
        I.Dst = NewName;
        pushName(V, NewName, PopLog);
      }
      Kept.push_back(std::move(I));
    }
    BB->Insts = std::move(Kept);

    // Fill phi operands of successors with the names current at the end
    // of this block.
    for (BlockId S : G.succs(B)) {
      const std::vector<Reg> &Vars = PhiVars[S];
      for (unsigned I = 0; I < Vars.size(); ++I)
        F.block(S)->Insts[I].addPhiIncoming(currentName(Vars[I]), B);
      Work += Vars.size();
    }
  }

  Function &F;
  SSAOptions Opts;
  CFG G;
  DominatorTree DT;
  DominanceFrontier DF;
  Liveness Live;
  unsigned NumCopiesFolded = 0;
  uint64_t Work = 0;
  /// Per block: the variable of each phi, in phi order.
  std::vector<std::vector<Reg>> PhiVars;
  /// Per register before renaming: the stack of its current names.
  std::vector<std::vector<Reg>> Stacks;
};

} // namespace

void epre::SSABuildPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  LastWork = SSABuilder(F, Opts).run(Ctx);
  F.bumpVersion();
}

PhiCopyPlacement::PhiCopyPlacement(Function &F, ExpandFn Expand) : F(F) {
  // Valid through the scan: the block graph changes only in the splits at
  // the end.
  CFG G = CFG::compute(F);
  DominatorTree DT = DominatorTree::compute(F, G);
  Liveness Live = Liveness::compute(F, G);

  IsExprName.assign(F.numRegs(), 0);
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.hasDst() && I.isExpression())
        IsExprName[I.Dst] = 1;
  });

  // With Expand, the registers each block needs on entry, sorted; filled
  // on first use.
  std::vector<std::vector<Reg>> Needs;
  std::vector<uint8_t> HasNeeds;
  if (Expand) {
    Needs.resize(F.numBlocks());
    HasNeeds.assign(F.numBlocks(), 0);
  }
  auto NeededOn = [&](Reg R, BlockId T) {
    if (!Expand)
      return Live.isLiveIn(R, T);
    std::vector<Reg> &N = Needs[T];
    if (!HasNeeds[T]) {
      HasNeeds[T] = 1;
      for (Reg L : Live.liveIn(T))
        Expand(L, N);
      std::sort(N.begin(), N.end());
      N.erase(std::unique(N.begin(), N.end()), N.end());
    }
    return std::binary_search(N.begin(), N.end(), R);
  };
  // A back-edge group may stay inline at the predecessor only if none of
  // its destinations is needed along another successor: otherwise the copy
  // would clobber a value a non-phi use still reads (e.g. a swapped
  // variable read after the loop).
  auto CanInline = [&](BlockId P, BlockId S,
                       const std::vector<PendingCopy> &Items) {
    if (G.succs(P).size() <= 1)
      return true;
    if (!DT.dominates(S, P))
      return false; // an entering edge: split it
    for (BlockId T : G.succs(P)) {
      if (T == S)
        continue;
      for (const PendingCopy &C : Items)
        if (NeededOn(C.Dst, T))
          return false;
    }
    return true;
  };

  ByPred.resize(F.numBlocks());
  std::vector<std::pair<BlockId, unsigned>> Splits; // (pred, group index)
  std::vector<std::pair<BlockId, PendingCopy>> Inputs;
  // Per register, the block (plus one) whose later phi defines it; per
  // phi of the current block, whether a later phi defines its register.
  std::vector<BlockId> DefinedLater(F.numRegs(), 0);
  std::vector<uint8_t> Overwritten;
  F.forEachBlock([&](BasicBlock &B) {
    unsigned Phis = B.firstNonPhi();
    if (Phis == 0)
      return;
    // Of two phis defining one register, the later wins, as in the
    // interpreter: the earlier one's inputs are dropped.
    Overwritten.assign(Phis, 0);
    for (unsigned I = Phis; I-- > 0;) {
      Reg D = B.Insts[I].Dst;
      Overwritten[I] = DefinedLater[D] == B.id() + 1;
      DefinedLater[D] = B.id() + 1;
    }
    // This block's phi inputs grouped by predecessor, ascending, each group
    // in phi order.
    Inputs.clear();
    for (unsigned I = 0; I < Phis; ++I) {
      const Instruction &Phi = B.Insts[I];
      for (unsigned J = 0; J < Phi.Operands.size() && !Overwritten[I]; ++J)
        Inputs.push_back({Phi.PhiBlocks[J], {Phi.Dst, Phi.Operands[J]}});
    }
    std::stable_sort(Inputs.begin(), Inputs.end(),
                     [](const auto &A, const auto &C) {
                       return A.first < C.first;
                     });
    for (size_t I = 0; I < Inputs.size();) {
      BlockId P = Inputs[I].first;
      EdgeCopies E;
      E.Succ = B.id();
      for (; I < Inputs.size() && Inputs[I].first == P; ++I)
        E.Items.push_back(Inputs[I].second);
      if (!CanInline(P, B.id(), E.Items))
        Splits.push_back({P, unsigned(ByPred[P].size())});
      ByPred[P].push_back(std::move(E));
    }
    B.Insts.erase(B.Insts.begin(), B.Insts.begin() + Phis);
  });

  for (auto [P, Idx] : Splits) {
    EdgeCopies &E = ByPred[P][Idx];
    E.CopyBlock = splitEdge(F, P, E.Succ)->id();
  }
}

std::span<const EdgeCopies> PhiCopyPlacement::edgesOf(BlockId P) const {
  if (P >= ByPred.size())
    return {};
  return ByPred[P];
}

std::vector<PendingCopy>
PhiCopyPlacement::capture(BlockId P, std::span<const Reg> Values) {
  std::vector<PendingCopy> AtPred;
  std::vector<EdgeCopies> &Edges = ByPred[P];
  auto ValueOf = [&](size_t I, const PendingCopy &C) {
    return Values.empty() ? C.Src : Values[I];
  };

  // The registers the inline copies overwrite, and per value the first
  // inline variable that receives it, both sorted for lookup.
  std::vector<Reg> InlineDsts;
  std::vector<PendingCopy> InlineCopyOf; // {variable, value}
  size_t I = 0;
  for (const EdgeCopies &E : Edges)
    for (const PendingCopy &C : E.Items) {
      if (E.CopyBlock == InvalidBlock) {
        InlineDsts.push_back(C.Dst);
        InlineCopyOf.push_back({C.Dst, ValueOf(I, C)});
      }
      ++I;
    }
  std::sort(InlineDsts.begin(), InlineDsts.end());
  std::stable_sort(InlineCopyOf.begin(), InlineCopyOf.end(),
                   [](const PendingCopy &A, const PendingCopy &B) {
                     return A.Src < B.Src;
                   });

  I = 0;
  for (EdgeCopies &E : Edges) {
    for (PendingCopy &C : E.Items) {
      Reg V = ValueOf(I++, C);
      if (E.CopyBlock == InvalidBlock) {
        AtPred.push_back({C.Dst, V});
        continue;
      }
      bool Clobbered =
          std::binary_search(InlineDsts.begin(), InlineDsts.end(), V);
      bool IsExpr = C.Src < IsExprName.size() && IsExprName[C.Src];
      C.Src = V;
      if (!Clobbered && !IsExpr)
        continue; // a plain variable or parameter: safe to read later
      if (!Clobbered) {
        auto Shared = std::lower_bound(
            InlineCopyOf.begin(), InlineCopyOf.end(), V,
            [](const PendingCopy &A, Reg R) { return A.Src < R; });
        if (Shared != InlineCopyOf.end() && Shared->Src == V) {
          C.Src = Shared->Dst;
          continue;
        }
      }
      Reg Tmp = F.makeReg(F.regType(V));
      AtPred.push_back({Tmp, V});
      C.Src = Tmp;
    }
  }
  return AtPred;
}

void PhiCopyPlacement::place(
    BlockId P, std::vector<PendingCopy> AtPred,
    const std::function<void(BlockId, Instruction &&)> &Emit) {
  sequenceCopyInstructions(F, AtPred,
                           [&](Instruction &&C) { Emit(P, std::move(C)); });
  if (P >= ByPred.size())
    return;
  for (EdgeCopies &E : ByPred[P])
    if (E.CopyBlock != InvalidBlock)
      sequenceCopyInstructions(F, E.Items, [&](Instruction &&C) {
        Emit(E.CopyBlock, std::move(C));
      });
}

void epre::SSADestroyPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  PhiCopyPlacement Phis(F);
  for (BlockId P = 0; P < F.numBlocks(); ++P)
    if (!Phis.edgesOf(P).empty())
      Phis.place(P, Phis.capture(P), [&](BlockId B, Instruction &&C) {
        F.block(B)->insertBeforeTerminator(std::move(C));
      });
  F.bumpVersion();
}
