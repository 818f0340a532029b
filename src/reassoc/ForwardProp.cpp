//===- reassoc/ForwardProp.cpp --------------------------------------------===//

#include "reassoc/ForwardProp.h"

#include "ssa/SSA.h"

#include <functional>
#include <queue>
#include <vector>

using namespace epre;

namespace {

class ForwardProp {
public:
  ForwardProp(Function &F, RankMap &Ranks) : F(F), Ranks(Ranks) {}

  /// Rewrites the function, publishes the counters and returns lastWork().
  uint64_t run(PassContext &Ctx) {
    Ctx.addStat("ops_before", F.staticOperationCount());
    Ctx.addStat("phis_removed", captureDefs());
    // The "needed on another successor" test judges the post-propagation
    // uses: a live-in expression will be re-materialized there as a tree
    // whose leaves are the phi variables.
    PhiCopyPlacement Phis(F, [&](Reg R, std::vector<Reg> &Needed) {
      treeLeaves(R, Needed);
    });
    Placement = &Phis;
    F.forEachBlock([&](BasicBlock &B) { rewriteBlock(B); });
    Ctx.addStat("ops_after", F.staticOperationCount());
    Ctx.addStat("trees_cloned", TreesCloned);
    return Work;
  }

private:
  /// Snapshot of the SSA definition of every expression (the rewrite below
  /// destroys the originals while clones still need them), and the
  /// per-register scratch sized to the registers that exist now: clones
  /// and leaves are looked up by these registers only. Returns the number
  /// of phis.
  unsigned captureDefs() {
    unsigned Phis = 0;
    DefOf.assign(F.numRegs(), NoIndex);
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        Phis += I.isPhi();
        // A register's first definition is the one that counts.
        if (!I.hasDst() || DefOf[I.Dst] != NoIndex)
          continue;
        DefOf[I.Dst] = I.isExpression() ? unsigned(Exprs.size()) : NotExpr;
        if (I.isExpression())
          Exprs.push_back(I);
      }
    });
    Clones.assign(F.numRegs(), {0, NoReg});
    LeafStamp.assign(F.numRegs(), 0);
    WriterOf.assign(F.numRegs(), NoIndex);
    return Phis;
  }

  /// True if \p R's definition is a propagatable expression (pure ops and
  /// pure calls; not loads, phis, copies, or parameters).
  bool isTreeNode(Reg R) const {
    return R < DefOf.size() && DefOf[R] < Exprs.size();
  }

  /// Clones the expression tree rooted at \p Root into \p Out, operands
  /// left to right, each node after its operands. Leaves are variables (phi
  /// targets), parameters, load results, or other non-expression values.
  /// Within one scope, shared subtrees are cloned once (memoized), which
  /// bounds the worst-case duplication. The walk keeps its own stack, so a
  /// tree as deep as a long dependence chain cannot overflow the thread's.
  Reg cloneTree(Reg Root, std::vector<Instruction> &Out) {
    // The clone of \p R when it needs no new node: R itself for a leaf, the
    // memoized clone for a subtree already done; NoReg otherwise.
    auto Done = [&](Reg R) {
      if (!isTreeNode(R))
        return R;
      return Clones[R].first == Scope ? Clones[R].second : NoReg;
    };
    if (Reg D = Done(Root))
      return D;
    struct Frame {
      Reg R;
      Instruction Clone;
      unsigned NextOp = 0;
    };
    std::vector<Frame> Stack;
    Stack.push_back({Root, Exprs[DefOf[Root]]});
    for (;;) {
      Frame &Top = Stack.back();
      if (Top.NextOp < Top.Clone.Operands.size()) {
        Reg Op = Top.Clone.Operands[Top.NextOp];
        if (Reg D = Done(Op))
          Top.Clone.Operands[Top.NextOp++] = D;
        else
          Stack.push_back({Op, Exprs[DefOf[Op]]});
        continue;
      }
      Reg Fresh = F.makeReg(F.regType(Top.R));
      Ranks.setRank(Fresh, Ranks.rank(Top.R));
      Top.Clone.Dst = Fresh;
      Clones[Top.R] = {Scope, Fresh};
      Out.push_back(std::move(Top.Clone));
      ++TreesCloned;
      ++Work;
      Stack.pop_back();
      if (Stack.empty())
        return Fresh;
      Frame &Parent = Stack.back();
      Parent.Clone.Operands[Parent.NextOp++] = Fresh;
    }
  }

  /// Appends the leaf registers of the tree rooted at \p Root to \p
  /// Leaves, visiting each shared subtree once (a leaf may repeat).
  void treeLeaves(Reg Root, std::vector<Reg> &Leaves) {
    ++LeafWalk;
    std::vector<Reg> Pending{Root};
    while (!Pending.empty()) {
      Reg R = Pending.back();
      Pending.pop_back();
      ++Work;
      if (!isTreeNode(R))
        Leaves.push_back(R);
      else if (LeafStamp[R] != LeafWalk) {
        LeafStamp[R] = LeafWalk;
        for (Reg Op : Exprs[DefOf[R]].Operands)
          Pending.push_back(Op);
      }
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
      ++Scope; // a new clone memo
      if (I.isTerminator()) {
        // Order at a block's end: phi-export trees, then the terminator's
        // operand trees (in the same scope, so e.g. a loop's bottom test
        // reuses the increment tree), then the export copies, then the
        // terminator. Trees all read pre-copy values; putting the export
        // trees first makes each variable dead by the time its new value
        // is produced, so coalescing can remove the copy (Figure 10).
        std::vector<PendingCopy> AtPred = emitExportTrees(B.id(), Out);
        for (Reg &Op : I.Operands)
          Op = cloneTree(Op, Out);
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
      // Load, Store, Copy: clone their operands' trees, keep the instruction.
      for (Reg &Op : I.Operands)
        Op = cloneTree(Op, Out);
      Out.push_back(std::move(I));
    }
    std::swap(B.Insts, Out);
    OutScratch = std::move(Out);
  }

  /// The order in which a block's export trees \p Items are emitted. Trees
  /// *reading* a variable run before the tree computing that variable's
  /// next value, so the copy into the variable can later coalesce (Figure
  /// 9 -> Figure 10). Kahn's ordering over "j reads d_i => j's tree before
  /// i's tree": an item is ready once every other item reading its
  /// destination is placed, so each variable is dead by the time its new
  /// value exists. The lowest-index ready item goes next; on a read cycle,
  /// the lowest-index unplaced item.
  std::vector<unsigned> exportOrder(std::span<const PendingCopy> Items) {
    // Each destination is one phi's, and a phi has one entry per
    // predecessor, so it has one item.
    for (unsigned I = 0; I < Items.size(); ++I) {
      assert(WriterOf[Items[I].Dst] == NoIndex && "two items write one phi");
      WriterOf[Items[I].Dst] = I;
    }
    // Per item, the other items whose destinations its tree reads, and how
    // many reads of its own destination unplaced items still make.
    std::vector<std::vector<unsigned>> Reads(Items.size());
    std::vector<unsigned> Readers(Items.size(), 0);
    std::vector<Reg> Leaves;
    for (unsigned J = 0; J < Items.size(); ++J) {
      Leaves.clear();
      treeLeaves(Items[J].Src, Leaves);
      for (Reg L : Leaves)
        if (unsigned W = WriterOf[L]; W != NoIndex && W != J) {
          Reads[J].push_back(W);
          ++Readers[W];
        }
      Work += Reads[J].size();
    }
    for (const PendingCopy &C : Items)
      WriterOf[C.Dst] = NoIndex;

    std::priority_queue<unsigned, std::vector<unsigned>, std::greater<>> Ready;
    for (unsigned I = 0; I < Items.size(); ++I)
      if (Readers[I] == 0)
        Ready.push(I);
    std::vector<unsigned> Order;
    std::vector<bool> Placed(Items.size(), false);
    for (unsigned Next = 0; Order.size() < Items.size();) {
      unsigned Pick;
      if (Ready.empty()) { // a read cycle: break it at the lowest index
        while (Placed[Next])
          ++Next;
        Pick = Next;
      } else {
        Pick = Ready.top();
        Ready.pop();
      }
      Placed[Pick] = true;
      Order.push_back(Pick);
      for (unsigned I : Reads[Pick])
        if (--Readers[I] == 0 && !Placed[I])
          Ready.push(I);
    }
    return Order;
  }

  /// Emits, at the end of block \p B, the evaluation of every outgoing
  /// edge's phi-input trees (in the current scope: shared subtrees like a
  /// loop accumulator are computed once), then applies the capture rule to
  /// the values. Returns the parallel copy to place at B's end after the
  /// terminator's own operand trees.
  std::vector<PendingCopy> emitExportTrees(BlockId B,
                                           std::vector<Instruction> &Out) {
    std::vector<PendingCopy> Items;
    for (const EdgeCopies &E : Placement->edgesOf(B))
      Items.insert(Items.end(), E.Items.begin(), E.Items.end());
    if (Items.empty())
      return {};

    // Evaluate all trees (before any copy).
    std::vector<Reg> ValueOf(Items.size());
    for (unsigned I : exportOrder(Items))
      ValueOf[I] = cloneTree(Items[I].Src, Out);

    Reg FirstNew = F.numRegs();
    std::vector<PendingCopy> AtPred = Placement->capture(B, ValueOf);
    for (const PendingCopy &C : AtPred)
      if (C.Dst >= FirstNew) // a captured temporary
        Ranks.setRank(C.Dst, Ranks.hasRank(C.Src) ? Ranks.rank(C.Src) : 0);
    return AtPred;
  }

  static constexpr unsigned NoIndex = ~0u, NotExpr = NoIndex - 1;

  Function &F;
  RankMap &Ranks;
  std::vector<Instruction> OutScratch;
  /// The expression definitions, and per register the index of its own
  /// (NotExpr when another instruction defines it first).
  std::vector<Instruction> Exprs;
  std::vector<unsigned> DefOf;
  /// Per register: (scope, clone), the clone valid while the scope is
  /// current.
  std::vector<std::pair<unsigned, Reg>> Clones;
  unsigned Scope = 0;
  /// Per register: the treeLeaves walk that last expanded it.
  std::vector<unsigned> LeafStamp;
  unsigned LeafWalk = 0;
  /// Per register: the export item writing it during exportOrder, else
  /// NoIndex.
  std::vector<unsigned> WriterOf;
  unsigned TreesCloned = 0;
  uint64_t Work = 0;
  PhiCopyPlacement *Placement = nullptr;
};

} // namespace

void epre::ForwardPropPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  LastWork = ForwardProp(F, *Ranks).run(Ctx);
  F.bumpVersion(); // phis are gone and every block was rewritten
}
