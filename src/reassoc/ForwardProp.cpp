//===- reassoc/ForwardProp.cpp --------------------------------------------===//

#include "reassoc/ForwardProp.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/Liveness.h"
#include "ssa/ParallelCopy.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <vector>

using namespace epre;

namespace {

/// Phi exports a predecessor owes one successor edge.
struct EdgeExports {
  /// Forwarding block holding the copies, or InvalidBlock when the copies
  /// are placed inline at the end of the predecessor (single-successor
  /// predecessors and loop back edges — the paper's Figure 5 shape).
  BlockId CopyBlock = InvalidBlock;
  /// (phi destination, SSA source) pairs.
  std::vector<std::pair<Reg, Reg>> Items;
};

class ForwardProp {
public:
  ForwardProp(Function &F, RankMap &Ranks) : F(F), Ranks(Ranks) {}

  ForwardPropStats run() {
    Stats.OpsBefore = F.staticOperationCount();
    captureDefs();
    capturePhis();
    F.forEachBlock([&](BasicBlock &B) {
      if (!NewBlocks.count(B.id()))
        rewriteBlock(B);
    });
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

  /// Gathers each block's phi exports and decides edge placement:
  ///  - single-successor predecessors and back edges keep their copies
  ///    inline at the predecessor's end;
  ///  - other (critical) entering edges get a forwarding block for the
  ///    copies ("If necessary, the entering edges are split").
  /// The input *trees* are always evaluated at the predecessor, before any
  /// of its copies, so every tree reads pre-copy values.
  void capturePhis() {
    // Valid through the scan: the mutation (splitEdge) happens only after
    // the last read.
    CFG G = CFG::compute(F);
    DominatorTree DT = DominatorTree::compute(F, G);
    Liveness Live = Liveness::compute(F, G);

    struct PendingSplit {
      BlockId Pred, Succ;
      size_t ExportIdx; // index into Exports[Pred]
    };
    std::vector<PendingSplit> Splits;

    // A back-edge group may stay inline at the predecessor only if none of
    // its destinations is needed along another successor. "Needed" must be
    // judged on the *post-propagation* uses: a live-in expression will be
    // re-materialized there as a tree whose leaves are the phi variables,
    // so expand live-in registers to their tree leaves before testing.
    auto canInline = [&](BlockId P, BlockId S,
                         const std::vector<std::pair<Reg, Reg>> &Items) {
      if (G.succs(P).size() <= 1)
        return true;
      if (!DT.dominates(S, P))
        return false; // entering edge: split ("if necessary")
      for (BlockId T : G.succs(P)) {
        if (T == S)
          continue;
        std::set<Reg> Needed;
        for (Reg R : Live.liveIn(T))
          treeLeaves(R, Needed);
        for (const auto &[Dst, Src] : Items)
          if (Needed.count(Dst))
            return false;
      }
      return true;
    };

    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()) || B.firstNonPhi() == 0)
        return;
      // Group this block's phi inputs by predecessor.
      std::map<BlockId, std::vector<std::pair<Reg, Reg>>> ByPred;
      for (const Instruction &I : B.Insts) {
        if (!I.isPhi())
          break;
        ++Stats.PhisRemoved;
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          ByPred[I.PhiBlocks[J]].push_back({I.Dst, I.Operands[J]});
      }
      for (auto &[P, Items] : ByPred) {
        EdgeExports E;
        bool Inline = canInline(P, B.id(), Items);
        E.Items = std::move(Items);
        Exports[P].push_back(std::move(E));
        if (!Inline)
          Splits.push_back({P, B.id(), Exports[P].size() - 1});
      }
    });

    // Create the forwarding blocks after the scan (splitting rewires phis,
    // which we have already captured).
    for (const PendingSplit &S : Splits) {
      BasicBlock *Mid = splitEdge(F, S.Pred, S.Succ);
      Exports[S.Pred][S.ExportIdx].CopyBlock = Mid->id();
      NewBlocks.insert(Mid->id());
    }
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

  /// Collects the leaf registers of the tree rooted at \p Root, visiting
  /// each shared subtree once.
  void treeLeaves(Reg Root, std::set<Reg> &Leaves) const {
    std::vector<Reg> Work{Root};
    std::set<Reg> Seen;
    while (!Work.empty()) {
      Reg R = Work.back();
      Work.pop_back();
      if (!isTreeNode(R))
        Leaves.insert(R);
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
      if (I.isPhi())
        continue; // replaced by predecessor copies
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
        std::vector<PendingExports> Pending = emitExportTrees(B.id(), Out,
                                                              Memo);
        anchorOperands(I, Out, &Memo);
        emitExportCopies(Pending, Out);
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

  /// Export work computed by emitExportTrees, consumed by emitExportCopies.
  struct PendingExports {
    BlockId CopyBlock = InvalidBlock; ///< InvalidBlock = inline
    std::vector<PendingCopy> Copies;
  };

  /// Emits, at the end of block \p B, the evaluation of every outgoing
  /// edge's phi-input trees into temporaries (one shared memo — shared
  /// subtrees like a loop accumulator are computed once). Returns the copy
  /// groups to be placed after the terminator's own operand trees.
  std::vector<PendingExports>
  emitExportTrees(BlockId B, std::vector<Instruction> &Out,
                  std::map<Reg, Reg> &Memo) {
    auto It = Exports.find(B);
    if (It == Exports.end())
      return {};
    std::vector<EdgeExports> &Groups = It->second;

    // Flatten for tree-emission ordering: trees *reading* a variable run
    // before the tree computing that variable's next value, so the copy
    // into the variable can later coalesce (Figure 9 -> Figure 10).
    struct Item {
      Reg Dst, Src;
      unsigned Group;
    };
    std::vector<Item> Items;
    for (unsigned GI = 0; GI < Groups.size(); ++GI)
      for (auto &[D, S] : Groups[GI].Items)
        Items.push_back({D, S, GI});

    // Kahn's ordering over "j reads d_i => j's tree before i's tree": an
    // item may be emitted once every reader of its destination is already
    // placed, so each variable is dead by the time its new value exists.
    std::vector<std::set<Reg>> Reads(Items.size());
    for (unsigned I = 0; I < Items.size(); ++I)
      treeLeaves(Items[I].Src, Reads[I]);
    std::vector<unsigned> Order;
    std::vector<bool> Placed(Items.size(), false);
    while (Order.size() < Items.size()) {
      int Pick = -1;
      for (unsigned I = 0; I < Items.size() && Pick < 0; ++I) {
        if (Placed[I])
          continue;
        bool WaitingForReader = false;
        for (unsigned J = 0; J < Items.size(); ++J)
          if (J != I && !Placed[J] && Reads[J].count(Items[I].Dst))
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

    // Inline destinations — the registers the inline parallel group will
    // overwrite at the end of this block — and, per source, the inline
    // variable that will hold its value afterwards.
    std::set<Reg> InlineDsts;
    std::map<Reg, Reg> InlineCopyOf;
    for (unsigned I = 0; I < Items.size(); ++I) {
      if (Groups[Items[I].Group].CopyBlock != InvalidBlock)
        continue;
      InlineDsts.insert(Items[I].Dst);
      InlineCopyOf.emplace(ValueOf[I], Items[I].Dst);
    }

    // Forwarding-block copies must not read expression names across the
    // block boundary (the §5.1 rule would force PRE to give up on those
    // expressions), nor values the inline group clobbers. Prefer reading
    // the inline variable that receives the same value (the common
    // loop-accumulator/exit pattern); otherwise capture a temporary in
    // parallel with the inline copies.
    std::vector<PendingCopy> AtPred;
    for (unsigned I = 0; I < Items.size(); ++I) {
      bool IsInline = Groups[Items[I].Group].CopyBlock == InvalidBlock;
      if (IsInline) {
        AtPred.push_back({Items[I].Dst, ValueOf[I]});
        continue;
      }
      Reg V = ValueOf[I];
      bool Clobbered = InlineDsts.count(V) != 0;
      bool IsExprName = isTreeNode(Items[I].Src);
      if (!Clobbered && !IsExprName)
        continue; // plain variable/parameter: safe to read from the block
      auto Shared = InlineCopyOf.find(V);
      if (!Clobbered && Shared != InlineCopyOf.end()) {
        ValueOf[I] = Shared->second;
        continue;
      }
      Reg Tmp = F.makeReg(F.regType(V));
      Ranks.setRank(Tmp, Ranks.hasRank(V) ? Ranks.rank(V) : 0);
      AtPred.push_back({Tmp, V});
      ValueOf[I] = Tmp;
    }

    std::vector<PendingExports> Result;
    PendingExports InlineGroup;
    InlineGroup.Copies = std::move(AtPred);
    Result.push_back(std::move(InlineGroup));
    for (unsigned GI = 0; GI < Groups.size(); ++GI) {
      if (Groups[GI].CopyBlock == InvalidBlock)
        continue;
      PendingExports Mid;
      Mid.CopyBlock = Groups[GI].CopyBlock;
      for (unsigned I = 0; I < Items.size(); ++I)
        if (Items[I].Group == GI)
          Mid.Copies.push_back({Items[I].Dst, ValueOf[I]});
      Result.push_back(std::move(Mid));
    }
    return Result;
  }

  /// Places the copy groups computed by emitExportTrees: the inline group
  /// at the current position, forwarding-block groups into their blocks.
  void emitExportCopies(std::vector<PendingExports> &Pending,
                        std::vector<Instruction> &Out) {
    for (PendingExports &P : Pending) {
      std::vector<Instruction> Seq =
          sequenceParallelCopies(F, std::move(P.Copies));
      if (P.CopyBlock == InvalidBlock) {
        for (Instruction &C : Seq) {
          if (!Ranks.hasRank(C.Dst))
            Ranks.setRank(C.Dst, Ranks.rank(C.Operands[0]));
          Out.push_back(std::move(C));
        }
        continue;
      }
      BasicBlock *Mid = F.block(P.CopyBlock);
      for (Instruction &C : Seq) {
        if (!Ranks.hasRank(C.Dst))
          Ranks.setRank(C.Dst, Ranks.rank(C.Operands[0]));
        Mid->insertBeforeTerminator(std::move(C));
      }
    }
  }

  Function &F;
  RankMap &Ranks;
  ForwardPropStats Stats;
  std::vector<Instruction> OutScratch;
  std::map<Reg, Instruction> Defs;
  std::map<BlockId, std::vector<EdgeExports>> Exports;
  std::set<BlockId> NewBlocks;
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

