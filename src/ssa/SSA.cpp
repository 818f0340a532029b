//===- ssa/SSA.cpp --------------------------------------------------------===//

#include "ssa/SSA.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/Liveness.h"
#include "ssa/ParallelCopy.h"

#include <cassert>
#include <map>
#include <set>

using namespace epre;

namespace {

class SSABuilder {
public:
  SSABuilder(Function &F, const SSAOptions &Opts) : F(F), Opts(Opts) {}

  SSAInfo run() {
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
    DT = DominatorTree::compute(F, G);
    DF = DominanceFrontier::compute(F, G, DT);

    insertEntryInits();
    collectDefSites();
    insertPhis();
    rename();

    Info.OriginalOf.resize(F.numRegs(), NoReg);
    for (const auto &[New, Old] : OriginalOfMap)
      Info.OriginalOf[New] = Old;
    return Info;
  }

private:
  /// Zero-initializes any register that may be used before being defined,
  /// so renaming always finds a reaching definition, and leaves \c Live
  /// describing the function with the inits in place.
  void insertEntryInits() {
    Live = Liveness::compute(F, G);
    std::vector<Reg> InitRegs;
    std::vector<Instruction> Inits;
    for (Reg R : Live.liveIn(0)) {
      if (F.isParam(R))
        continue;
      InitRegs.push_back(R);
      if (F.regType(R) == Type::F64)
        Inits.push_back(Instruction::makeLoadF(R, 0.0));
      else
        Inits.push_back(Instruction::makeLoadI(R, 0));
    }
    BasicBlock *Entry = F.entry();
    Entry->Insts.insert(Entry->Insts.begin(), Inits.begin(), Inits.end());
    // The inits kill their registers at the top of the entry block. With no
    // edge into the entry nothing else changes; a loop back to the entry
    // carries the change around the loop, so solve again.
    if (G.preds(0).empty())
      Live.defineAtEntry(InitRegs);
    else if (!InitRegs.empty())
      Live = Liveness::compute(F, G);
  }

  void collectDefSites() {
    DefBlocks.clear();
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst())
          DefBlocks[I.Dst].insert(B.id());
    });
  }

  void insertPhis() {
    for (const auto &[V, Defs] : DefBlocks) {
      // Iterated dominance frontier of the def sites.
      std::set<BlockId> HasPhi;
      std::vector<BlockId> Work(Defs.begin(), Defs.end());
      while (!Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        for (BlockId D : DF.frontier(B)) {
          if (HasPhi.count(D))
            continue;
          if (!Live.isLiveIn(V, D))
            continue;
          HasPhi.insert(D);
          BasicBlock *DB = F.block(D);
          Instruction Phi = Instruction::makePhi(F.regType(V), V);
          DB->Insts.insert(DB->Insts.begin(), std::move(Phi));
          PhiVar[{D, 0}] = V; // re-keyed below; placeholder
          ++Info.NumPhis;
          if (!Defs.count(D))
            Work.push_back(D);
        }
      }
    }
    // Phi instructions may have shifted within blocks as more were inserted;
    // rebuild the (block, index) -> variable map from phi destinations,
    // which still carry the original variable name.
    PhiVar.clear();
    F.forEachBlock([&](const BasicBlock &B) {
      for (unsigned I = 0; I < B.Insts.size() && B.Insts[I].isPhi(); ++I)
        PhiVar[{B.id(), I}] = B.Insts[I].Dst;
    });
  }

  Reg currentName(Reg V) {
    auto It = Stacks.find(V);
    assert(It != Stacks.end() && !It->second.empty() &&
           "use of register with no reaching definition");
    return It->second.back();
  }

  void pushName(Reg V, Reg Name, std::vector<Reg> &PopLog) {
    Stacks[V].push_back(Name);
    PopLog.push_back(V);
  }

  void rename() {
    // Parameters name themselves.
    std::vector<Reg> DummyLog;
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
        Reg V = PhiVar.at({B, PhiIdx++});
        Reg NewName = F.makeReg(F.regType(V));
        OriginalOfMap[NewName] = V;
        I.Dst = NewName;
        pushName(V, NewName, PopLog);
        Kept.push_back(std::move(I));
        continue;
      }
      // Rewrite uses to the current version.
      for (Reg &U : I.Operands)
        U = currentName(U);
      // Copy folding: x <- y makes y's current name the name of x.
      if (Opts.FoldCopies && I.isCopy()) {
        pushName(I.Dst, I.Operands[0], PopLog);
        ++Info.NumCopiesFolded;
        continue; // the copy disappears
      }
      if (I.hasDst()) {
        Reg V = I.Dst;
        Reg NewName = F.makeReg(F.regType(V));
        OriginalOfMap[NewName] = V;
        I.Dst = NewName;
        pushName(V, NewName, PopLog);
      }
      Kept.push_back(std::move(I));
    }
    BB->Insts = std::move(Kept);

    // Fill phi operands of successors with the names current at the end
    // of this block.
    for (BlockId S : G.succs(B)) {
      const BasicBlock *SB = F.block(S);
      for (unsigned I = 0; I < SB->Insts.size() && SB->Insts[I].isPhi(); ++I) {
        Reg V = PhiVar.at({S, I});
        F.block(S)->Insts[I].addPhiIncoming(currentName(V), B);
      }
    }
  }

  Function &F;
  SSAOptions Opts;
  CFG G;
  DominatorTree DT;
  DominanceFrontier DF;
  Liveness Live;
  SSAInfo Info;
  std::map<Reg, std::set<BlockId>> DefBlocks;
  std::map<std::pair<BlockId, unsigned>, Reg> PhiVar;
  std::map<Reg, std::vector<Reg>> Stacks;
  std::map<Reg, Reg> OriginalOfMap;
};

} // namespace

void epre::SSABuildPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  SSABuilder B(F, Opts);
  Last = B.run();
  Ctx.addStat("phis", Last.NumPhis);
  Ctx.addStat("copies_folded", Last.NumCopiesFolded);
  F.bumpVersion();
}

namespace {

void destroySSAImpl(Function &F) {
  // Copies for single-successor predecessors and loop back edges are
  // placed inline at the end of the predecessor (keeping loop bodies in
  // one block, the paper's Figure 5 shape); other critical entering edges
  // get forwarding blocks. A forwarding-block copy whose source is about
  // to be clobbered by the predecessor's inline group reads a temporary
  // captured in parallel with the clobber.
  CFG G = CFG::compute(F);
  DominatorTree DT = DominatorTree::compute(F, G);
  Liveness Live = Liveness::compute(F, G);

  struct EdgeGroup {
    BlockId Pred;
    BlockId Succ;
    bool Inline;
    BlockId CopyBlock = InvalidBlock;
    std::vector<PendingCopy> Items;
  };
  std::vector<EdgeGroup> Groups;

  // A back-edge group may stay inline at the predecessor only if none of
  // its destinations is *directly* live into one of the predecessor's
  // other successors — otherwise the copy would clobber a value a non-phi
  // use still needs (e.g. a swapped variable read after the loop).
  auto canInline = [&](BlockId P, BlockId S,
                       const std::vector<PendingCopy> &Items) {
    if (G.succs(P).size() <= 1)
      return true;
    if (!DT.dominates(S, P))
      return false; // not a back edge
    for (BlockId T : G.succs(P)) {
      if (T == S)
        continue;
      for (const PendingCopy &C : Items)
        if (Live.isLiveIn(C.Dst, T))
          return false;
    }
    return true;
  };

  F.forEachBlock([&](BasicBlock &B) {
    unsigned NumPhis = B.firstNonPhi();
    if (NumPhis == 0)
      return;
    std::map<BlockId, std::vector<PendingCopy>> ByPred;
    for (unsigned I = 0; I < NumPhis; ++I) {
      const Instruction &Phi = B.Insts[I];
      for (unsigned J = 0; J < Phi.Operands.size(); ++J)
        ByPred[Phi.PhiBlocks[J]].push_back({Phi.Dst, Phi.Operands[J]});
    }
    for (auto &[P, Items] : ByPred) {
      EdgeGroup EG;
      EG.Pred = P;
      EG.Succ = B.id();
      EG.Inline = canInline(P, B.id(), Items);
      EG.Items = std::move(Items);
      Groups.push_back(std::move(EG));
    }
    B.Insts.erase(B.Insts.begin(), B.Insts.begin() + NumPhis);
  });

  for (EdgeGroup &EG : Groups)
    if (!EG.Inline)
      EG.CopyBlock = splitEdge(F, EG.Pred, EG.Succ)->id();

  // Process per predecessor so the inline group and the temporaries it
  // implies are sequenced together.
  std::map<BlockId, std::vector<EdgeGroup *>> ByPred;
  for (EdgeGroup &EG : Groups)
    ByPred[EG.Pred].push_back(&EG);

  // Registers holding expression values: a forwarding-block copy may not
  // read them across the block boundary (it would violate the §5.1 naming
  // rule and force PRE to drop the expression from its universe).
  std::set<Reg> ExprNames;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.hasDst() && I.isExpression())
        ExprNames.insert(I.Dst);
  });

  for (auto &[P, List] : ByPred) {
    std::set<Reg> InlineDsts;
    std::map<Reg, Reg> InlineCopyOf;
    for (EdgeGroup *EG : List)
      if (EG->Inline)
        for (const PendingCopy &C : EG->Items) {
          InlineDsts.insert(C.Dst);
          InlineCopyOf.emplace(C.Src, C.Dst);
        }

    std::vector<PendingCopy> AtPred;
    for (EdgeGroup *EG : List) {
      if (EG->Inline) {
        for (const PendingCopy &C : EG->Items)
          AtPred.push_back(C);
        continue;
      }
      for (PendingCopy &C : EG->Items) {
        bool Clobbered = InlineDsts.count(C.Src) != 0;
        bool IsExpr = ExprNames.count(C.Src) != 0;
        if (!Clobbered && !IsExpr)
          continue;
        auto Shared = InlineCopyOf.find(C.Src);
        if (!Clobbered && Shared != InlineCopyOf.end()) {
          C.Src = Shared->second;
          continue;
        }
        Reg Tmp = F.makeReg(F.regType(C.Src));
        AtPred.push_back({Tmp, C.Src});
        C.Src = Tmp;
      }
    }
    std::vector<Instruction> Seq =
        sequenceParallelCopies(F, std::move(AtPred));
    BasicBlock *PB = F.block(P);
    PB->Insts.insert(PB->Insts.end() - 1,
                     std::make_move_iterator(Seq.begin()),
                     std::make_move_iterator(Seq.end()));

    for (EdgeGroup *EG : List) {
      if (EG->Inline)
        continue;
      std::vector<Instruction> MidSeq =
          sequenceParallelCopies(F, std::move(EG->Items));
      BasicBlock *Mid = F.block(EG->CopyBlock);
      for (Instruction &C : MidSeq)
        Mid->insertBeforeTerminator(std::move(C));
    }
  }
  F.bumpVersion();
}

} // namespace

void epre::SSADestroyPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  destroySSAImpl(F);
}

