//===- reassoc/ForwardProp.cpp --------------------------------------------===//

#include "reassoc/ForwardProp.h"

#include "ssa/SSA.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace epre;

namespace {

class ForwardProp {
public:
  ForwardProp(Function &F, RankMap &Ranks) : F(F), Ranks(Ranks) {}

  ForwardPropStats run() {
    Stats.OpsBefore = F.staticOperationCount();
    captureDefs();
    // The "needed on another successor" test judges the post-propagation
    // uses: a live-in expression will be re-materialized there as a tree
    // whose leaves are the phi variables.
    PhiCopyPlacement Phis(F, [&](Reg R, std::vector<Reg> &Needed) {
      treeLeaves(R, Needed);
    });
    Stats.PhisRemoved = Phis.numPhis();
    Placement = &Phis;
    F.forEachBlock([&](BasicBlock &B) { rewriteBlock(B); });
    Stats.OpsAfter = F.staticOperationCount();
    return Stats;
  }

private:
  /// Snapshot of the SSA definition of every register (the rewrite below
  /// destroys the originals while clones still need them).
  void captureDefs() {
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst())
          Defs.emplace(I.Dst, I);
    });
  }

  /// True if \p R's definition is a propagatable expression (pure ops and
  /// pure calls; not loads, phis, copies, or parameters).
  bool isTreeNode(Reg R) const {
    auto It = Defs.find(R);
    return It != Defs.end() && It->second.isExpression();
  }

  /// Clones the expression tree rooted at \p Root into \p Out, operands
  /// left to right, each node after its operands. Leaves are variables (phi
  /// targets), parameters, load results, or other non-expression values.
  /// Within one anchor, shared subtrees are cloned once (memoized), which
  /// bounds the worst-case duplication. The walk keeps its own stack, so a
  /// tree as deep as a long dependence chain cannot overflow the thread's.
  Reg cloneTree(Reg Root, std::vector<Instruction> &Out,
                std::map<Reg, Reg> &Memo) {
    // The clone of \p R when it needs no new node: R itself for a leaf, the
    // memoized clone for a subtree already done; NoReg otherwise.
    auto Done = [&](Reg R) {
      if (!isTreeNode(R))
        return R;
      auto Hit = Memo.find(R);
      return Hit != Memo.end() ? Hit->second : NoReg;
    };
    if (Reg D = Done(Root))
      return D;
    struct Frame {
      Reg R;
      Instruction Clone;
      unsigned NextOp = 0;
    };
    std::vector<Frame> Stack;
    Stack.push_back({Root, Defs.at(Root)});
    for (;;) {
      Frame &Top = Stack.back();
      if (Top.NextOp < Top.Clone.Operands.size()) {
        Reg Op = Top.Clone.Operands[Top.NextOp];
        if (Reg D = Done(Op))
          Top.Clone.Operands[Top.NextOp++] = D;
        else
          Stack.push_back({Op, Defs.at(Op)});
        continue;
      }
      Reg Fresh = F.makeReg(F.regType(Top.R));
      Ranks.setRank(Fresh, Ranks.rank(Top.R));
      Top.Clone.Dst = Fresh;
      Memo.emplace(Top.R, Fresh);
      Out.push_back(std::move(Top.Clone));
      ++Stats.TreesCloned;
      Stack.pop_back();
      if (Stack.empty())
        return Fresh;
      Frame &Parent = Stack.back();
      Parent.Clone.Operands[Parent.NextOp++] = Fresh;
    }
  }

  /// Clones the trees feeding \p I's operands and rewrites them in place.
  void anchorOperands(Instruction &I, std::vector<Instruction> &Out,
                      std::map<Reg, Reg> *SharedMemo = nullptr) {
    std::map<Reg, Reg> LocalMemo;
    std::map<Reg, Reg> &Memo = SharedMemo ? *SharedMemo : LocalMemo;
    for (Reg &Op : I.Operands)
      Op = cloneTree(Op, Out, Memo);
  }

  /// Appends the leaf registers of the tree rooted at \p Root to \p
  /// Leaves, visiting each shared subtree once (a leaf may repeat).
  void treeLeaves(Reg Root, std::vector<Reg> &Leaves) const {
    std::vector<Reg> Work{Root};
    std::set<Reg> Seen;
    while (!Work.empty()) {
      Reg R = Work.back();
      Work.pop_back();
      if (!isTreeNode(R))
        Leaves.push_back(R);
      else if (Seen.insert(R).second)
        for (Reg Op : Defs.at(R).Operands)
          Work.push_back(Op);
    }
  }

  void rewriteBlock(BasicBlock &B) {
    // Per-block scratch recycled across blocks (capacity survives the swap).
    std::vector<Instruction> Out = std::move(OutScratch);
    Out.clear();
    Out.reserve(B.Insts.size());
    for (Instruction &I : B.Insts) {
      if (I.isExpression())
        continue; // re-materialized at each use
      if (I.isTerminator()) {
        // Order at a block's end: phi-export trees, then the terminator's
        // operand trees (sharing the memo, so e.g. a loop's bottom test
        // reuses the increment tree), then the export copies, then the
        // terminator. Trees all read pre-copy values; putting the export
        // trees first makes each variable dead by the time its new value
        // is produced, so coalescing can remove the copy (Figure 10).
        std::map<Reg, Reg> Memo;
        std::vector<PendingCopy> AtPred = emitExportTrees(B.id(), Out, Memo);
        anchorOperands(I, Out, &Memo);
        Placement->place(B.id(), std::move(AtPred),
                         [&](BlockId Where, Instruction &&C) {
                           if (!Ranks.hasRank(C.Dst))
                             Ranks.setRank(C.Dst, Ranks.rank(C.Operands[0]));
                           if (Where == B.id())
                             Out.push_back(std::move(C));
                           else
                             F.block(Where)->insertBeforeTerminator(
                                 std::move(C));
                         });
        Out.push_back(std::move(I));
        continue;
      }
      // Load, Store, Copy: anchor their operands, keep the instruction.
      anchorOperands(I, Out);
      Out.push_back(std::move(I));
    }
    std::swap(B.Insts, Out);
    OutScratch = std::move(Out);
  }

  /// Emits, at the end of block \p B, the evaluation of every outgoing
  /// edge's phi-input trees (one shared memo: shared subtrees like a loop
  /// accumulator are computed once), then applies the capture rule to the
  /// values. Returns the parallel copy to place at B's end after the
  /// terminator's own operand trees.
  std::vector<PendingCopy> emitExportTrees(BlockId B,
                                           std::vector<Instruction> &Out,
                                           std::map<Reg, Reg> &Memo) {
    std::vector<PendingCopy> Items;
    for (const EdgeCopies &E : Placement->edgesOf(B))
      Items.insert(Items.end(), E.Items.begin(), E.Items.end());
    if (Items.empty())
      return {};

    // Tree-emission order: trees *reading* a variable run before the tree
    // computing that variable's next value, so the copy into the variable
    // can later coalesce (Figure 9 -> Figure 10). Kahn's ordering over
    // "j reads d_i => j's tree before i's tree": an item may be emitted
    // once every reader of its destination is already placed, so each
    // variable is dead by the time its new value exists.
    std::vector<std::vector<Reg>> Reads(Items.size());
    for (unsigned I = 0; I < Items.size(); ++I) {
      treeLeaves(Items[I].Src, Reads[I]);
      std::sort(Reads[I].begin(), Reads[I].end());
    }
    std::vector<unsigned> Order;
    std::vector<bool> Placed(Items.size(), false);
    while (Order.size() < Items.size()) {
      int Pick = -1;
      for (unsigned I = 0; I < Items.size() && Pick < 0; ++I) {
        if (Placed[I])
          continue;
        bool WaitingForReader = false;
        for (unsigned J = 0; J < Items.size(); ++J)
          if (J != I && !Placed[J] &&
              std::binary_search(Reads[J].begin(), Reads[J].end(),
                                 Items[I].Dst))
            WaitingForReader = true;
        if (!WaitingForReader)
          Pick = int(I);
      }
      if (Pick < 0) // read cycle; break arbitrarily
        for (unsigned I = 0; I < Items.size() && Pick < 0; ++I)
          if (!Placed[I])
            Pick = int(I);
      Placed[unsigned(Pick)] = true;
      Order.push_back(unsigned(Pick));
    }

    // Evaluate all trees (before any copy).
    std::vector<Reg> ValueOf(Items.size());
    for (unsigned I : Order)
      ValueOf[I] = cloneTree(Items[I].Src, Out, Memo);

    Reg FirstNew = F.numRegs();
    std::vector<PendingCopy> AtPred = Placement->capture(B, ValueOf);
    for (const PendingCopy &C : AtPred)
      if (C.Dst >= FirstNew) // a captured temporary
        Ranks.setRank(C.Dst, Ranks.hasRank(C.Src) ? Ranks.rank(C.Src) : 0);
    return AtPred;
  }

  Function &F;
  RankMap &Ranks;
  ForwardPropStats Stats;
  std::vector<Instruction> OutScratch;
  std::map<Reg, Instruction> Defs;
  PhiCopyPlacement *Placement = nullptr;
};

} // namespace

void epre::ForwardPropPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  ForwardProp FP(F, *Ranks);
  Last = FP.run();
  Ctx.addStat("ops_before", Last.OpsBefore);
  Ctx.addStat("ops_after", Last.OpsAfter);
  Ctx.addStat("phis_removed", Last.PhisRemoved);
  Ctx.addStat("trees_cloned", Last.TreesCloned);
  F.bumpVersion(); // phis are gone and every block was rewritten
}

