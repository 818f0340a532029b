//===- pre/PRE.cpp --------------------------------------------------------===//

#include "pre/PRE.h"

#include "analysis/CFG.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/ProfileInfo.h"
#include "ir/ExprKey.h"
#include "pre/MaxFlow.h"
#include "support/BitVector.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <utility>
#include <vector>

using namespace epre;

namespace {

/// One expression candidate: a name and its defining shape.
struct ExprInfo {
  Reg Name = NoReg;
  /// The first reachable definition in block order, which insertions copy
  /// (every definition computes the same expression).
  Instruction Proto;
};

/// FIFO ring of block ids with membership flags: queueing a block that is
/// already queued is a no-op, so the ring never holds more than one entry
/// per block and is sized once, up front.
class BlockQueue {
public:
  explicit BlockQueue(unsigned NumSlots)
      : Ring(NumSlots + 1), InQueue(NumSlots, 0) {}

  bool empty() const { return Count == 0; }

  void push(BlockId B) {
    if (InQueue[B])
      return;
    InQueue[B] = 1;
    Ring[Tail] = B;
    Tail = (Tail + 1) % Ring.size();
    ++Count;
  }

  BlockId pop() {
    assert(Count != 0 && "pop from empty queue");
    BlockId B = Ring[Head];
    Head = (Head + 1) % Ring.size();
    InQueue[B] = 0;
    --Count;
    return B;
  }

private:
  std::vector<BlockId> Ring;
  std::vector<uint8_t> InQueue;
  size_t Head = 0, Tail = 0, Count = 0;
};

/// Per-expression lists in one flat array: the items of expression E are
/// Items[Start[E]] .. Items[Start[E + 1] - 1].
struct ExprLists {
  std::vector<unsigned> Start, Items;

  struct Range {
    const unsigned *B, *E;
    const unsigned *begin() const { return B; }
    const unsigned *end() const { return E; }
  };

  /// Lists, for every expression, the items of the rows whose bit vector
  /// has its bit set, in row order. A row is (item, bits).
  void build(unsigned NumExprs,
             const std::vector<std::pair<unsigned, const BitVector *>> &Rows) {
    Start.assign(NumExprs + 1, 0);
    for (const auto &[Item, Bits] : Rows)
      for (int E = Bits->findFirst(); E != -1; E = Bits->findNext(unsigned(E)))
        ++Start[E + 1];
    for (unsigned E = 0; E < NumExprs; ++E)
      Start[E + 1] += Start[E];
    Items.resize(Start[NumExprs]);
    std::vector<unsigned> Fill(Start.begin(), Start.end() - 1);
    for (const auto &[Item, Bits] : Rows)
      for (int E = Bits->findFirst(); E != -1; E = Bits->findNext(unsigned(E)))
        Items[Fill[E]++] = Item;
  }

  Range of(unsigned E) const {
    return {Items.data() + Start[E], Items.data() + Start[E + 1]};
  }
};

/// Only expressions that cannot trap may be computed on a path where the
/// program would not have computed them. In this IR the trapping shapes
/// are integer division/remainder (÷0, INT64_MIN/-1), F2I (NaN / out of
/// range), and intrinsic calls (i64 abs of INT64_MIN) — see evalPure.
/// Everything else (including FP divide: IEEE inf/NaN, no trap) is safe:
/// a speculatively computed value is either dead or bit-equal to what the
/// deleted occurrence would have produced.
bool speculationSafe(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Div:
  case Opcode::Mod:
    return I.Ty != Type::I64;
  case Opcode::F2I:
  case Opcode::Call:
    return false;
  default:
    return true;
  }
}

} // namespace

/// The session's state. Expression indices come in two spaces. A candidate
/// index names a register whose reachable definitions all compute one
/// lexical expression; the candidates are fixed when the session starts
/// and ascend by register. A member is a candidate that has a definition
/// and passes the §5.1 filter: the universe. A round solves a compact index
/// over its dirty members, also ascending by register, so insertion order
/// and remark order are the ones a solve over the whole universe gives.
struct epre::PRESession::Impl {
  Impl(Function &F, PREStrategy Strategy, const FunctionProfile *Profile)
      : F(F), Strategy(Strategy), Profile(Profile) {}

  /// Optional remark emitter (instrumented runs only).
  PassContext *Ctx = nullptr;

  Function &function() const { return F; }

  /// Runs only the analysis half of a first round (universe, local sets,
  /// AVAIL/ANT solves); leaves the function untouched.
  PREDataflow analyze() {
    start();
    PREDataflow D;
    solveDataflow();
    D.Stats = Stats;
    for (unsigned E = 0; E < numExprs(); ++E)
      D.Names.push_back(expr(E).Name);
    D.ANTLOC = std::move(ANTLOC);
    D.COMP = std::move(COMP);
    D.TRANSP = std::move(TRANSP);
    D.AntBoundary = std::move(AntBoundary);
    D.AVIN = std::move(AVIN);
    D.AVOUT = std::move(AVOUT);
    D.ANTIN = std::move(ANTIN);
    D.ANTOUT = std::move(ANTOUT);
    return D;
  }

  /// One round: the first builds the session, later ones bring it up to
  /// date with what the previous round changed. Only dirty expressions are
  /// solved, and only blocks that can lose a computation are rewritten.
  PREStats round() {
    if (!Started)
      start();
    else
      refresh();
    if (!solveDataflow())
      return Stats;
    collectEdges();
    switch (Strategy) {
    case PREStrategy::LazyCodeMotion:
      placeLazyCodeMotion();
      break;
    case PREStrategy::MorelRenvoise:
      placeMorelRenvoise();
      break;
    case PREStrategy::GlobalCSE:
      // Available-expressions CSE: delete only, insert nothing.
      buildDelete(AVIN, /*Complement=*/false);
      break;
    case PREStrategy::Speculative:
      placeSpeculative();
      break;
    }
    applyDeletions();
    applyInsertions();
    if (Stats.Inserted || Stats.Deleted)
      F.bumpVersion();
    endSolve();
    return Stats;
  }

private:
  static constexpr unsigned NoExpr = ~0u;

  unsigned numExprs() const { return unsigned(Dirty.size()); }
  /// Expression \p E of the round's compact index.
  const ExprInfo &expr(unsigned E) const { return Cands[Dirty[E]]; }
  /// The compact index of candidate \p C, or NoExpr when the round does
  /// not solve it.
  unsigned compactOf(unsigned C) const {
    return C == NoExpr ? NoExpr : Compact[C];
  }

  // --- Candidates and the universe ------------------------------------------

  /// Builds the session on the function as it stands: the CFG, the
  /// candidates, every block's local facts and the universe, all of whose
  /// members are dirty.
  void start() {
    Started = true;
    G = CFG::compute(F);
    buildCandidates();
    Rows.assign(F.numBlocks(), {});
    MayRedundant.assign(F.numBlocks(), 0);
    for (BlockId B : G.rpo())
      addRow(B);
    updateUniverse();
    collectDirty();
  }

  void buildCandidates() {
    const unsigned NR = F.numRegs();
    // Candidate: every def is the same lexical expression. ProtoOf holds a
    // register's first reachable expression definition; a later one whose
    // key differs marks the name Bad.
    std::vector<const Instruction *> ProtoOf(NR, nullptr);
    std::vector<uint8_t> Bad(NR, 0), Mixed(NR, 0);
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        if (I.isPhi()) {
          Bad[I.Dst] = 1;
          continue;
        }
        if (!I.isExpression()) {
          Bad[I.Dst] = 1; // variables (copies) and loads
          continue;
        }
        // Self-referential names can never be moved.
        for (Reg Op : I.Operands)
          if (Op == I.Dst)
            Bad[I.Dst] = 1;
        const Instruction *&Proto = ProtoOf[I.Dst];
        if (!Proto)
          Proto = &I;
        else if (!(makeExprKey(*Proto, /*NormalizeCommutative=*/true) ==
                   makeExprKey(I, /*NormalizeCommutative=*/true)))
          Bad[I.Dst] = 1; // one name, two different expressions
        else if (!sameSpelling(*Proto, I))
          Mixed[I.Dst] = 1;
      }
    });
    for (Reg P : F.params())
      Bad[P] = 1;

    // Candidates in ascending register order: expression indices, insertion
    // order and the printed IR depend on it.
    CandOf.assign(NR, NoExpr);
    for (Reg R = 0; R < NR; ++R) {
      if (!ProtoOf[R] || Bad[R])
        continue;
      CandOf[R] = unsigned(Cands.size());
      Cands.push_back({R, *ProtoOf[R]});
      Spellings.push_back(Mixed[R]);
    }
    const size_t NC = Cands.size();
    // Reverse map: operand register -> candidates it occurs in.
    RegToExprs.assign(NR, {});
    for (unsigned C = 0; C < NC; ++C)
      for (Reg Op : Cands[C].Proto.Operands)
        RegToExprs[Op].push_back(C);
    DefBlocks.assign(NC, 0);
    UseBlocks.assign(NC, 0);
    Member.assign(NC, 0);
    State.assign(NC, 0);
    CompAt.assign(NC, 0);
    DefAt.assign(NR, 0);
    Marked.assign(NC, 0);
    Compact.assign(NC, NoExpr);
    IsChanged.assign(NC, 0);
  }

  /// True when \p A and \p B print alike (commutative operands in the same
  /// order).
  static bool sameSpelling(const Instruction &A, const Instruction &B) {
    return A.Op == B.Op && A.Ty == B.Ty && A.Operands == B.Operands &&
           A.IImm == B.IImm && A.FImm == B.FImm && A.Intr == B.Intr;
  }

  /// Adds candidate \p C to the universe counts, or removes it. A member
  /// has a reachable definition and no use in a block before a local
  /// definition: the §5.1 rule, that an expression name may not be live
  /// across a block boundary, drops the names that break it.
  void countMember(unsigned C, bool Add) {
    if (Add)
      Member[C] = DefBlocks[C] != 0 && UseBlocks[C] == 0;
    unsigned Dropped = DefBlocks[C] != 0 && UseBlocks[C] != 0;
    if (Add) {
      NumMembers += Member[C];
      NumDropped += Dropped;
    } else {
      NumMembers -= Member[C];
      NumDropped -= Dropped;
    }
  }

  /// Takes candidate \p C out of the universe counts until updateUniverse
  /// puts it back.
  void mark(unsigned C) {
    if (Marked[C])
      return;
    Marked[C] = 1;
    MarkedList.push_back(C);
    countMember(C, /*Add=*/false);
  }

  /// Counts the marked candidates back in; a name entering the universe
  /// is dirty.
  void updateUniverse() {
    for (unsigned C : MarkedList) {
      Marked[C] = 0;
      bool Was = Member[C];
      countMember(C, /*Add=*/true);
      if (Member[C] && !Was)
        setDirty(C);
    }
    MarkedList.clear();
  }

  /// Marks candidate \p C dirty for the next solve; between rounds Compact
  /// doubles as the flag.
  void setDirty(unsigned C) { Compact[C] = 0; }

  /// Turns the dirty flags into the next solve's list, ascending.
  void collectDirty() {
    Dirty.clear();
    for (unsigned C = 0; C < Cands.size(); ++C)
      if (Compact[C] != NoExpr) {
        Compact[C] = NoExpr;
        if (Member[C])
          Dirty.push_back(C);
      }
  }

  // --- Local walk -----------------------------------------------------------
  //
  // One left-to-right walk of a block feeds its local facts, the universe
  // counts and the rewrite. An instruction computing an expression is
  // upward-exposed when no operand was redefined before it in the block,
  // and locally redundant when the expression was computed before it with
  // no operand redefined since (classic local CSE, which Morel–Renvoise
  // assume as a preprocessing step). The walk reads both from each
  // register's last definition and each candidate's last computation, as
  // positions on one clock that never restarts, so starting a block clears
  // nothing.

  enum : uint8_t {
    Antloc = 1,    ///< an upward-exposed computation
    Comp = 2,      ///< computed, and no operand redefined after
    Def = 4,       ///< the name defined
    UsedFirst = 8, ///< the name read before any local definition
    Seen = 16,     ///< the walk's own mark: the candidate is on SeenList
  };

  /// A candidate's facts in one block.
  struct Fact {
    unsigned Cand;
    uint8_t Flags;
  };

  /// A block's local facts: the candidates it computes or reads, and the
  /// registers it defines that some candidate reads (its kills).
  struct Row {
    std::vector<Fact> Facts;
    std::vector<Reg> Kills;
  };

  /// What the walk knows of one instruction, read before its kills apply.
  struct LocalStep {
    unsigned Cand = NoExpr; ///< the candidate computed, or NoExpr
    bool Exposed = false;   ///< no operand killed yet: upward-exposed
    bool Redundant = false; ///< computed since with no kill: locally redundant
  };

  uint8_t &touch(unsigned C) {
    if (!State[C]) {
      State[C] = Seen;
      SeenList.push_back(C);
    }
    return State[C];
  }

  /// True when an operand of candidate \p C was defined after clock \p T.
  bool killedAfter(unsigned C, uint64_t T) const {
    for (Reg Op : Cands[C].Proto.Operands)
      if (DefAt[Op] > T)
        return true;
    return false;
  }

  void startBlock() { BlockStart = Clock; }

  /// Reads \p I's facts, then applies its uses and definition.
  LocalStep step(const Instruction &I) {
    ++Clock;
    for (Reg Op : I.Operands) {
      unsigned C = CandOf[Op];
      if (C != NoExpr && DefAt[Op] <= BlockStart)
        touch(C) |= UsedFirst;
    }
    LocalStep S;
    if (!I.hasDst())
      return S;
    unsigned C = CandOf[I.Dst];
    if (C != NoExpr) {
      S = {C, !killedAfter(C, BlockStart),
           CompAt[C] > BlockStart && !killedAfter(C, CompAt[C])};
      touch(C) |= Def | (S.Exposed ? Antloc : 0);
      CompAt[C] = Clock;
    }
    if (DefAt[I.Dst] <= BlockStart && !RegToExprs[I.Dst].empty())
      KillList.push_back(I.Dst);
    DefAt[I.Dst] = Clock;
    return S;
  }

  /// Ends a block's walk, storing its facts into \p R when given.
  void finishBlock(Row *R) {
    for (unsigned C : SeenList) {
      uint8_t Flags = State[C] & ~Seen;
      if (CompAt[C] > BlockStart && !killedAfter(C, CompAt[C]))
        Flags |= Comp;
      if (R)
        R->Facts.push_back({C, Flags});
      State[C] = 0;
    }
    SeenList.clear();
    if (R)
      R->Kills.swap(KillList); // KillList takes the row's old storage
    KillList.clear();
  }

  /// Walks block \p B into its row and counts the row into the universe.
  void addRow(BlockId B) {
    bool Redundant = false;
    startBlock();
    for (const Instruction &I : F.block(B)->Insts)
      Redundant |= step(I).Redundant;
    Rows[B].Facts.clear();
    finishBlock(&Rows[B]);
    MayRedundant[B] = Redundant;
    for (const Fact &Fa : Rows[B].Facts) {
      mark(Fa.Cand);
      DefBlocks[Fa.Cand] += (Fa.Flags & Def) != 0;
      UseBlocks[Fa.Cand] += (Fa.Flags & UsedFirst) != 0;
    }
  }

  // --- Between rounds -------------------------------------------------------

  /// Brings the session up to date with the previous round's edits: the
  /// CFG after split edges, the rows of edited blocks, the universe and the
  /// dirty set.
  void refresh() {
    if (!Splits.empty()) {
      G = CFG::compute(F);
      Prices.reset();
      Rows.resize(F.numBlocks());
      MayRedundant.resize(F.numBlocks(), 0);
    }
    for (BlockId B : Edited) {
      for (const Fact &Fa : Rows[B].Facts) {
        mark(Fa.Cand);
        DefBlocks[Fa.Cand] -= (Fa.Flags & Def) != 0;
        UseBlocks[Fa.Cand] -= (Fa.Flags & UsedFirst) != 0;
      }
      addRow(B);
      IsEdited[B] = 0;
    }
    updateUniverse();

    // An inserted or deleted computation changes the facts of its own
    // expression and of every expression that reads its name.
    bool Respell = false;
    for (unsigned C : Changed) {
      setDirty(C);
      for (unsigned U : RegToExprs[Cands[C].Name])
        setDirty(U);
      Respell |= Spellings[C] != 0;
    }
    if (Respell)
      respell();
    markSplitEdges();

    for (unsigned C : Changed)
      IsChanged[C] = 0;
    Edited.clear();
    Changed.clear();
    Splits.clear();
    collectDirty();
  }

  /// Splitting an edge From -> To puts an empty block on it. AVAIL, ANT
  /// and LCM's LATER pass through such a block unchanged when To reaches
  /// an exit, so an expression the round did not touch can place
  /// differently in two cases only:
  /// - To cannot reach an exit. Its ANTOUT is empty, so is the new block's,
  ///   and an expression anticipated at To (ANTIN(To) = ANTLOC(To) there)
  ///   may move.
  /// - Speculative. An expression whose LCM placement was set aside for a
  ///   tie with the code as it stands is priced on its LCM insertion edges,
  ///   and the split edge's price becomes unknown.
  /// Morel–Renvoise never splits: PPIN(b) <= PPOUT(p) + AVOUT(p) for every
  /// predecessor p, so its edge insertions are empty. GCSE inserts nothing.
  void markSplitEdges() {
    for (auto [From, To] : Splits)
      if (AntBoundary[To])
        for (const Fact &Fa : Rows[To].Facts)
          if (Fa.Flags & Antloc)
            setDirty(Fa.Cand);
    std::sort(Splits.begin(), Splits.end());
    for (const TieEdge &T : Ties)
      if (std::binary_search(Splits.begin(), Splits.end(),
                             std::make_pair(T.From, T.To)))
        setDirty(T.Cand);
  }

  /// Re-reads the prototype of each changed candidate whose definitions
  /// are spelled more than one way: insertions copy the first reachable
  /// definition in block order, and a deletion may have removed it.
  void respell() {
    for (unsigned C : Changed)
      Marked[C] = Spellings[C];
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts) {
        unsigned C = I.hasDst() ? CandOf[I.Dst] : NoExpr;
        if (C != NoExpr && Marked[C]) {
          Cands[C].Proto = I;
          Marked[C] = 0;
        }
      }
    });
    for (unsigned C : Changed)
      Marked[C] = 0;
  }

  /// Records that the rewrite changed block \p B.
  void edited(BlockId B) {
    if (B >= IsEdited.size())
      IsEdited.resize(F.numBlocks(), 0);
    if (!IsEdited[B]) {
      IsEdited[B] = 1;
      Edited.push_back(B);
    }
  }

  /// Records that the rewrite inserted or deleted a computation of
  /// candidate \p C.
  void changed(unsigned C) {
    if (!IsChanged[C]) {
      IsChanged[C] = 1;
      Changed.push_back(C);
    }
  }

  // --- Global dataflow ------------------------------------------------------
  //
  // AVAIL, ANT and LATERIN are one-direction, all-paths systems solved to
  // their greatest fixpoints by one worklist routine, solveFixpoint.

  /// Solves the AVAIL/ANT fixpoints of the round's dirty members over
  /// their compact index, from local sets gathered out of the block rows.
  /// Returns false when there is nothing to solve.
  bool solveDataflow() {
    Stats = PREStats();
    Stats.UniverseSize = NumMembers;
    Stats.DroppedUnsafe = NumDropped;
    if (Dirty.empty())
      return false;
    for (unsigned E = 0; E < numExprs(); ++E)
      Compact[Dirty[E]] = E;
    // A re-solved expression records its ties afresh.
    std::erase_if(Ties,
                  [&](const TieEdge &T) { return Compact[T.Cand] != NoExpr; });
    Empty = BitVector(numExprs());
    Words = Empty.numWords();
    Acc = Val = Term = Empty;
    gatherLocal();
    solveAvailability();
    solveAnticipability();
    return true;
  }

  // ANTLOC and COMP from the rows' flags; TRANSP clears each expression
  // that reads a register the block defines.
  void gatherLocal() {
    unsigned NB = F.numBlocks();
    ANTLOC.assign(NB, Empty);
    COMP.assign(NB, Empty);
    TRANSP.assign(NB, BitVector(numExprs(), true));
    // Readers[ReaderStart[R]] .. Readers[ReaderStart[R + 1] - 1]: the
    // expressions solved this round that read register R.
    std::vector<unsigned> ReaderStart(F.numRegs() + 1, 0), Readers;
    for (unsigned E = 0; E < numExprs(); ++E)
      for (Reg Op : expr(E).Proto.Operands)
        ++ReaderStart[Op + 1];
    for (unsigned R = 0; R < F.numRegs(); ++R)
      ReaderStart[R + 1] += ReaderStart[R];
    Readers.resize(ReaderStart.back());
    std::vector<unsigned> Fill(ReaderStart.begin(), ReaderStart.end() - 1);
    for (unsigned E = 0; E < numExprs(); ++E)
      for (Reg Op : expr(E).Proto.Operands)
        Readers[Fill[Op]++] = E;

    for (BlockId B : G.rpo()) {
      for (const Fact &Fa : Rows[B].Facts) {
        unsigned E = Compact[Fa.Cand];
        if (E == NoExpr)
          continue;
        if (Fa.Flags & Antloc)
          ANTLOC[B].set(E);
        if (Fa.Flags & Comp)
          COMP[B].set(E);
      }
      for (Reg R : Rows[B].Kills)
        for (unsigned I = ReaderStart[R]; I < ReaderStart[R + 1]; ++I)
          TRANSP[B].reset(Readers[I]);
    }
  }

  /// Ends the round's solve. The per-round sets keep their storage: later
  /// rounds solve fewer expressions and reuse it.
  void endSolve() {
    for (unsigned C : Dirty)
      Compact[C] = NoExpr;
  }

  /// Queues \p Seed in order, then evaluates blocks first in, first out:
  /// \p Update recomputes a block's flow-side set and reports whether it
  /// changed, and only then are the blocks that read that set queued again
  /// (successors when \p Forward, predecessors otherwise). Returns the
  /// number of evaluations.
  template <typename UpdateFn>
  unsigned solveFixpoint(const std::vector<BlockId> &Seed, bool Forward,
                         UpdateFn Update) {
    BlockQueue Queue(G.numBlockSlots());
    for (BlockId B : Seed)
      Queue.push(B);
    unsigned Evaluations = 0;
    while (!Queue.empty()) {
      BlockId B = Queue.pop();
      ++Evaluations;
      if (Update(B))
        for (BlockId N : Forward ? G.succs(B) : G.preds(B))
          Queue.push(N);
    }
    return Evaluations;
  }

  /// The meet of \p Flow over \p Nbrs: their intersection, or their union
  /// when \p Union is set. Returns a set already in storage where one
  /// serves (the empty set at a boundary or without neighbours, a sole
  /// neighbour's own set) and otherwise computes the meet into \p S.
  const BitVector &meet(std::span<const BlockId> Nbrs, bool Boundary,
                        bool Union, const std::vector<BitVector> &Flow,
                        BitVector &S) {
    if (Boundary || Nbrs.empty())
      return Empty;
    if (Nbrs.size() == 1)
      return Flow[Nbrs[0]];
    S.assignFrom(Flow[Nbrs[0]]);
    for (unsigned I = 1; I < Nbrs.size(); ++I) {
      if (Union)
        S.unionWith(Flow[Nbrs[I]]);
      else
        S.intersectWith(Flow[Nbrs[I]]);
    }
    Stats.Work += Words * Nbrs.size();
    return S;
  }

  /// Solves Flow = Meet * TRANSP + Gen, where Meet is the meet of Flow over
  /// the predecessors (\p Forward) or the successors, forced empty where
  /// \p Boundary holds. Sets start all-ones, or all-zero for a \p Union
  /// meet; unreachable blocks keep that value. Each block's meet is stored
  /// into \p MeetSets once, after convergence. Returns the evaluations.
  template <typename BoundaryFn>
  unsigned solveTransparent(bool Forward, bool Union, BoundaryFn Boundary,
                            const std::vector<BitVector> &Gen,
                            std::vector<BitVector> &MeetSets,
                            std::vector<BitVector> &FlowSets) {
    MeetSets.assign(F.numBlocks(), BitVector(numExprs(), !Union));
    FlowSets.assign(F.numBlocks(), BitVector(numExprs(), !Union));
    auto Nbrs = [&](BlockId B) { return Forward ? G.preds(B) : G.succs(B); };
    const std::vector<BlockId> Order = Forward ? G.rpo() : G.postorder();
    // The meet is read in place and the transfer fused with the
    // change-detecting store; a self loop's meet may alias FlowSets[B],
    // which is safe because the kernel reads each word before writing it.
    unsigned Evaluations = solveFixpoint(Order, Forward, [&](BlockId B) {
      const BitVector &M = meet(Nbrs(B), Boundary(B), Union, FlowSets, Acc);
      Stats.Work += Words;
      return FlowSets[B].assignMeetPreserveGen(M, TRANSP[B], Gen[B]);
    });
    for (BlockId B : Order) {
      const BitVector &M =
          meet(Nbrs(B), Boundary(B), Union, FlowSets, MeetSets[B]);
      if (&M != &MeetSets[B]) {
        MeetSets[B].assignFrom(M);
        Stats.Work += Words;
      }
    }
    return Evaluations;
  }

  // AVIN = product of predecessors' AVOUT (empty at entry);
  // AVOUT = COMP + TRANSP*AVIN. Under the planted fault the product becomes
  // a sum with no entry boundary.
  void solveAvailability() {
    const bool Union = fault::preDropAvailabilityMeet();
    const BlockId Entry = G.rpo().front();
    Stats.AvailIterations = solveTransparent(
        /*Forward=*/true, Union,
        [&](BlockId B) { return !Union && B == Entry; }, COMP, AVIN, AVOUT);
  }

  // ANTOUT = product of successors' ANTIN (empty at exits);
  // ANTIN = ANTLOC + TRANSP*ANTOUT.
  void solveAnticipability() {
    unsigned NB = F.numBlocks();

    // Blocks that cannot reach an exit get empty ANTOUT: hoisting into or
    // above an infinite loop is never down-safe.
    AntBoundary.assign(NB, 1);
    {
      std::vector<BlockId> Work;
      F.forEachBlock([&](const BasicBlock &B) {
        if (G.isReachable(B.id()) && B.terminator().Op == Opcode::Ret) {
          AntBoundary[B.id()] = 0;
          Work.push_back(B.id());
        }
      });
      while (!Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        for (BlockId P : G.preds(B))
          if (AntBoundary[P]) {
            AntBoundary[P] = 0;
            Work.push_back(P);
          }
      }
    }

    Stats.AntIterations = solveTransparent(
        /*Forward=*/false, /*Union=*/false,
        [&](BlockId B) { return AntBoundary[B] != 0; }, ANTLOC, ANTOUT, ANTIN);
  }

  // --- Edge set -------------------------------------------------------------

  struct Edge {
    BlockId From = InvalidBlock; ///< InvalidBlock marks the virtual entry edge
    BlockId To = 0;
    BitVector Insert;
  };

  /// Lists the virtual entry edge, then each reachable block's out-edges in
  /// block order. The lists keep their storage from round to round.
  void collectEdges() {
    size_t N = 0;
    auto add = [&](BlockId From, BlockId To) {
      if (N == Edges.size())
        Edges.emplace_back();
      Edge &E = Edges[N++];
      E.From = From;
      E.To = To;
      E.Insert = Empty;
    };
    add(InvalidBlock, G.rpo().front());
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (BlockId S : B.successors())
        add(B.id(), S);
    });
    Edges.resize(N);
    // In-edge index per block.
    InEdges.resize(F.numBlocks());
    for (std::vector<unsigned> &In : InEdges)
      In.clear();
    for (unsigned E = 0; E < Edges.size(); ++E)
      InEdges[Edges[E].To].push_back(E);
  }

  /// EARLIEST(p,b) = ANTIN(b) * ~AVOUT(p) * (~TRANSP(p) + ~ANTOUT(p)) into
  /// \p R; ANTIN(b) on the virtual entry edge.
  void earliest(const Edge &E, BitVector &R) {
    R.assignFrom(ANTIN[E.To]);
    if (E.From == InvalidBlock)
      return;
    R.intersectWithComplement(AVOUT[E.From]);
    Term.assignFrom(TRANSP[E.From]);
    Term.intersectWith(ANTOUT[E.From]);
    R.intersectWithComplement(Term);
  }

  /// The deletion rule every strategy shares: DELETE = ANTLOC * S, where S
  /// is the strategy's set at block entry, or its complement when
  /// \p Complement is set.
  void buildDelete(const std::vector<BitVector> &S, bool Complement) {
    DELETE.assign(F.numBlocks(), Empty);
    for (BlockId B : G.rpo()) {
      DELETE[B].assignFrom(ANTLOC[B]);
      if (Complement)
        DELETE[B].intersectWithComplement(S[B]);
      else
        DELETE[B].intersectWith(S[B]);
    }
  }

  // --- Placement: Drechsler–Stadel lazy code motion -------------------------

  void placeLazyCodeMotion() {
    Earliest.assign(Edges.size(), Empty);
    for (unsigned EI = 0; EI < Edges.size(); ++EI)
      earliest(Edges[EI], Earliest[EI]);

    // LATERIN as greatest fixpoint: it only shrinks, and a shrink at a
    // block can only shrink its successors. LATER is derivable from LATERIN
    // (edge formula below), so it is not stored.
    LATERIN.assign(F.numBlocks(), BitVector(numExprs(), true));
    auto laterOf = [&](unsigned EI, BitVector &L) {
      // LATER = EARLIEST + LATERIN(from)*~ANTLOC(from).
      const Edge &E = Edges[EI];
      L.assignFrom(Earliest[EI]);
      if (E.From != InvalidBlock) {
        Term.assignFrom(LATERIN[E.From]);
        Term.intersectWithComplement(ANTLOC[E.From]);
        L.unionWith(Term);
      }
    };
    solveFixpoint(G.rpo(), /*Forward=*/true, [&](BlockId B) {
      Acc.setAll();
      for (unsigned EI : InEdges[B]) {
        laterOf(EI, Val);
        Acc.intersectWith(Val);
        // laterOf's passes (one for the entry edge, four otherwise) and
        // the intersection.
        Stats.Work += Words * (Edges[EI].From == InvalidBlock ? 2 : 5);
      }
      Stats.Work += Words * 2; // the all-ones start and the store
      return LATERIN[B].assignFrom(Acc);
    });

    // INSERT(p,b) = LATER(p,b) * ~LATERIN(b).
    for (unsigned EI = 0; EI < Edges.size(); ++EI) {
      laterOf(EI, Edges[EI].Insert);
      Edges[EI].Insert.intersectWithComplement(LATERIN[Edges[EI].To]);
    }
    buildDelete(LATERIN, /*Complement=*/true);
  }

  // --- Placement: Morel–Renvoise, at block ends -----------------------------

  void placeMorelRenvoise() {
    unsigned NB = F.numBlocks();
    unsigned NE = numExprs();
    std::vector<BitVector> PPIN(NB, BitVector(NE, true));
    std::vector<BitVector> PPOUT(NB, BitVector(NE, true));

    // The system is bidirectional (Morel–Renvoise), so it stays a dense
    // round-robin sweep; the per-block temporaries are the Acc/Val/Term
    // members and results are stored with changed-flag kernels, so each
    // iteration is allocation-free.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId B : G.rpo()) {
        // PPOUT = product of successors' PPIN (empty at exits).
        BitVector &Out = Acc;
        if (G.succs(B).empty()) {
          Out.resetAll();
        } else {
          Out.setAll();
          for (BlockId S : G.succs(B))
            Out.intersectWith(PPIN[S]);
        }
        // PPIN = ANTIN * (ANTLOC + TRANSP*PPOUT)
        //        * prod_preds (PPOUT(p) + AVOUT(p)); empty at entry.
        BitVector &In = Val;
        if (B == G.rpo().front()) {
          In.resetAll();
        } else {
          Term.assignFrom(TRANSP[B]);
          Term.intersectWith(Out);
          Term.unionWith(ANTLOC[B]);
          In.assignFrom(ANTIN[B]);
          In.intersectWith(Term);
          for (BlockId P : G.preds(B)) {
            Term.assignFrom(PPOUT[P]);
            Term.unionWith(AVOUT[P]);
            In.intersectWith(Term);
          }
        }
        bool InChanged = PPIN[B].assignFrom(In);
        bool OutChanged = PPOUT[B].assignFrom(Out);
        Changed |= InChanged || OutChanged;
      }
    }

    // Insertions go at block ends only, and edges keep their empty sets:
    // INSERT(b) = PPOUT(b) * ~AVOUT(b) * (~PPIN(b) + ~TRANSP(b)).
    BlockInsert.assign(NB, Empty);
    for (BlockId B : G.rpo()) {
      BlockInsert[B].assignFrom(PPOUT[B]);
      BlockInsert[B].intersectWithComplement(AVOUT[B]);
      Term.assignFrom(PPIN[B]);
      Term.intersectWith(TRANSP[B]);
      BlockInsert[B].intersectWithComplement(Term);
    }
    buildDelete(PPIN, /*Complement=*/false);
  }

  // --- Placement: profile-guided speculative min cut ------------------------

  /// Dynamic cost of carrying an insertion on edge \p EI, in executed
  /// operations under profile \p PI (index 0 is the virtual entry edge:
  /// one insertion per invocation). A critical edge costs double: it has
  /// to be split, and the split block's jump executes on every traversal
  /// alongside the inserted evaluation. Charging the jump per expression
  /// is conservative when several expressions share one split block.
  uint64_t insertEdgeCost(const ProfileInfo &PI, unsigned EI) const {
    const Edge &E = Edges[EI];
    if (E.From == InvalidBlock)
      return PI.entryWeight();
    uint64_t W = PI.edgeWeight(E.From, E.To);
    if (G.preds(E.To).size() > 1 && G.succs(E.From).size() > 1)
      W *= 2;
    return W;
  }

  /// Lospre-style placement (docs/speculative-pre.md): start from the LCM
  /// solution, then re-place each speculation-safe expression by a min cut
  /// of a network whose finite capacities are profiled execution counts —
  /// CFG-edge arcs cost what inserting there would execute, occurrence
  /// arcs cost what keeping the original computation executes. The cut is
  /// adopted only when strictly cheaper than LCM's weighted cost, so
  /// missing profiles, cold expressions, and ties all keep the safe LCM
  /// placement — except a tie with the code as it stands, which leaves the
  /// expression where it is.
  void placeSpeculative() {
    placeLazyCodeMotion();
    // The join depends only on the CFG and its labels.
    if (!Prices)
      Prices = ProfileInfo::compute(F, G, Profile);
    const ProfileInfo &PI = *Prices;
    if (!PI.attached())
      return;

    indexSpeculation();
    BlockId Entry = G.rpo().front();
    for (unsigned E = 0; E < numExprs(); ++E) {
      uint64_t OccWeight, LCMCost;
      if (!speculationCandidate(E, PI, OccWeight, LCMCost))
        continue;
      uint64_t CutCost = solveRegionCut(E, PI);

      // Cutting every occurrence arc is a cut, so CutCost <= OccWeight. On
      // a tie no placement beats the code as it stands: leave it alone
      // rather than adopt an equal-cost rewrite (inserting on an occurrence
      // block's single in-edge and deleting the occurrence), which the
      // next round would find and adopt again, forever.
      if (CutCost == OccWeight) {
        for (unsigned EI : LCMInserts.of(E))
          if (Edges[EI].From != InvalidBlock)
            Ties.push_back({Edges[EI].From, Edges[EI].To, Dirty[E]});
        clearPlacement(E);
        continue;
      }
      if (CutCost >= LCMCost)
        continue; // speculation does not pay on this profile; keep LCM

      // Adopt the cut: insertions are the saturated source-to-sink-side
      // arcs; an occurrence is deleted exactly when the cut separates it
      // from every remaining source of unavailability.
      clearPlacement(E);
      for (unsigned EI : CutInserts)
        Edges[EI].Insert.set(E);
      for (BlockId B : CutDeletes)
        DELETE[B].set(E);
      ++Stats.Speculated;
      if (Ctx && Ctx->remarksEnabled())
        Ctx->remark(RemarkKind::Insert, F, F.block(Entry)->label(),
                    opcodeName(expr(E).Proto.Op),
                    strprintf("speculative placement of r%u adopted: "
                              "weighted cost %llu -> %llu",
                              expr(E).Name, (unsigned long long)LCMCost,
                              (unsigned long long)CutCost));
    }
  }

  /// Per-run indexes for placeSpeculative: each expression's occurrences
  /// and LCM insertion edges as lists, so no per-expression step scans the
  /// whole function, plus each block's out-edges and the region scratch.
  void indexSpeculation() {
    unsigned NB = F.numBlocks();
    std::vector<std::pair<unsigned, const BitVector *>> Rows;
    for (BlockId B : G.rpo())
      Rows.push_back({B, &ANTLOC[B]});
    Occurrences.build(numExprs(), Rows);
    Rows.clear();
    for (unsigned EI = 0; EI < Edges.size(); ++EI)
      Rows.push_back({EI, &Edges[EI].Insert});
    LCMInserts.build(numExprs(), Rows);

    // collectEdges lists each block's out-edges consecutively.
    OutEdges.assign(NB, {0, 0});
    for (unsigned EI = 1; EI < Edges.size(); ++EI) {
      auto &R = OutEdges[Edges[EI].From];
      if (R.first == R.second)
        R.first = EI;
      R.second = EI + 1;
    }
    Mark.assign(NB, 0);
    InNode.assign(NB, 0);
    OutNode.assign(NB, 0);
    Touched.clear();
  }

  /// Weighs expression \p E for the min cut. False when it must keep its
  /// LCM placement untouched: it may trap, it is cold, or LCM already costs
  /// nothing on this profile.
  bool speculationCandidate(unsigned E, const ProfileInfo &PI,
                            uint64_t &OccWeight, uint64_t &LCMCost) const {
    if (!speculationSafe(expr(E).Proto))
      return false;
    // Weighted cost of the upward-exposed occurrences: the most any
    // placement could have to pay, and the speculation budget. A cold
    // expression (no matched counts) stays on the LCM placement.
    OccWeight = 0;
    for (BlockId B : Occurrences.of(E))
      OccWeight += PI.blockWeight(B);
    if (OccWeight == 0)
      return false;

    // Unknown edges (label drift: the CFG changed after the profile was
    // collected) count as free here and unbounded in the network. Both
    // choices bias the same way — toward keeping the LCM placement in
    // regions the profile cannot price.
    LCMCost = 0;
    for (unsigned EI : LCMInserts.of(E))
      if (Edges[EI].From == InvalidBlock ||
          PI.edgeKnown(Edges[EI].From, Edges[EI].To))
        LCMCost += insertEdgeCost(PI, EI);
    for (BlockId B : Occurrences.of(E))
      if (!DELETE[B].test(E))
        LCMCost += PI.blockWeight(B);
    return LCMCost != 0; // already free on this profile; nothing to gain
  }

  /// Drops \p E's LCM insertions and deletions (every LCM insertion edge
  /// and deletion block is on the expression's lists).
  void clearPlacement(unsigned E) {
    for (unsigned EI : LCMInserts.of(E))
      Edges[EI].Insert.reset(E);
    for (BlockId B : Occurrences.of(E))
      DELETE[B].reset(E);
  }

  // Region marks: a split-block node leads to an occurrence (reaches T)
  // and/or is fed by a source of unavailability (reached from S).
  enum : uint8_t { InToOcc = 1, OutToOcc = 2, InFromSrc = 4, OutFromSrc = 8 };

  bool inRegion(BlockId B) const {
    return (Mark[B] & (InToOcc | InFromSrc)) == (InToOcc | InFromSrc);
  }
  bool outInRegion(BlockId B) const {
    return (Mark[B] & (OutToOcc | OutFromSrc)) == (OutToOcc | OutFromSrc);
  }

  /// Marks expression \p E's region: the split-block nodes on some path
  /// from a source of unavailability to an upward-exposed occurrence. No
  /// other node can carry flow, so a network over the region has the same
  /// min cut as one over the whole function. One backward walk from the
  /// occurrences through blocks that neither compute nor kill E finds the
  /// nodes leading to an occurrence; one forward walk from the sources,
  /// staying on those nodes, keeps the ones the sources reach.
  void buildRegion(unsigned E) {
    for (BlockId B : Touched)
      Mark[B] = 0;
    Touched.clear();
    auto mark = [&](BlockId B, uint8_t Bit) {
      if (Mark[B] & Bit)
        return false;
      if (!Mark[B])
        Touched.push_back(B);
      Mark[B] |= Bit;
      return true;
    };
    // Unavailability flows through a block that neither kills nor
    // computes E, and restarts at the exit of one that kills without
    // recomputing.
    auto passes = [&](BlockId B) {
      return TRANSP[B].test(E) && !COMP[B].test(E);
    };
    auto sources = [&](BlockId B) {
      return !TRANSP[B].test(E) && !COMP[B].test(E);
    };

    Work.clear();
    for (BlockId B : Occurrences.of(E))
      if (mark(B, InToOcc))
        Work.push_back(B);
    while (!Work.empty()) {
      BlockId V = Work.back();
      Work.pop_back();
      for (BlockId U : G.preds(V))
        if (mark(U, OutToOcc) && passes(U) && mark(U, InToOcc))
          Work.push_back(U);
    }

    // Forward work items are node keys: 2B for in(B), 2B + 1 for out(B).
    BlockId Entry = G.rpo().front();
    if ((Mark[Entry] & InToOcc) && mark(Entry, InFromSrc))
      Work.push_back(2 * Entry);
    for (BlockId B : Touched)
      if ((Mark[B] & OutToOcc) && sources(B) && mark(B, OutFromSrc))
        Work.push_back(2 * B + 1);
    while (!Work.empty()) {
      unsigned K = Work.back();
      Work.pop_back();
      BlockId B = K / 2;
      if (K % 2 == 0) {
        if (passes(B) && (Mark[B] & OutToOcc) && mark(B, OutFromSrc))
          Work.push_back(K + 1);
        continue;
      }
      for (BlockId V : G.succs(B))
        if ((Mark[V] & InToOcc) && mark(V, InFromSrc))
          Work.push_back(2 * V);
    }
  }

  /// Solves expression \p E's min cut over its region and reads the
  /// placement back into CutInserts (edge indices) and CutDeletes
  /// (occurrence blocks); returns the cut's weighted cost.
  ///
  /// Every block is split so availability can terminate inside it. S
  /// feeds every source of unavailability (function entry, exits of
  /// blocks that kill without recomputing); T collects the upward-exposed
  /// occurrences.
  uint64_t solveRegionCut(unsigned E, const ProfileInfo &PI) {
    buildRegion(E);
    const unsigned S = 0, T = 1;
    unsigned Nodes = 2;
    for (BlockId B : Touched) {
      if (inRegion(B))
        InNode[B] = Nodes++;
      if (outInRegion(B))
        OutNode[B] = Nodes++;
    }

    BlockId Entry = G.rpo().front();
    Net.reset(Nodes);
    if (inRegion(Entry))
      Net.addArc(S, InNode[Entry], PI.blockKnown(Entry) ? PI.entryWeight()
                                                        : MaxFlow::Unbounded);
    for (BlockId B : Touched) {
      if (inRegion(B) && ANTLOC[B].test(E))
        Net.addArc(InNode[B], T, PI.blockWeight(B));
      if (!outInRegion(B))
        continue;
      if (TRANSP[B].test(E)) {
        // The sources reach out(B) only through in(B): B passes E.
        assert(inRegion(B) && !COMP[B].test(E));
        Net.addArc(InNode[B], OutNode[B], MaxFlow::Unbounded);
      } else {
        Net.addArc(S, OutNode[B], MaxFlow::Unbounded);
      }
      for (unsigned EI = OutEdges[B].first; EI < OutEdges[B].second; ++EI) {
        BlockId V = Edges[EI].To;
        if (inRegion(V))
          Net.addArc(OutNode[B], InNode[V],
                     PI.edgeKnown(B, V) ? insertEdgeCost(PI, EI)
                                        : MaxFlow::Unbounded);
      }
    }
    Stats.SpecNetworkArcs += Net.numArcs();

    uint64_t CutCost = Net.solve(S, T);
    Net.sourceSide(S, Reach);
    CutInserts.clear();
    CutDeletes.clear();
    if (inRegion(Entry) && !Reach[InNode[Entry]])
      CutInserts.push_back(0);
    for (BlockId B : Touched)
      if (outInRegion(B) && Reach[OutNode[B]])
        for (unsigned EI = OutEdges[B].first; EI < OutEdges[B].second; ++EI)
          if (inRegion(Edges[EI].To) && !Reach[InNode[Edges[EI].To]])
            CutInserts.push_back(EI);
    // An occurrence outside the region is reached by no source: it is
    // fully available and goes, as under LCM.
    for (BlockId B : Occurrences.of(E))
      if (!inRegion(B) || !Reach[InNode[B]])
        CutDeletes.push_back(B);
    return CutCost;
  }

  // --- Rewrite --------------------------------------------------------------

  /// Walks the blocks that can lose a computation: those with a DELETE
  /// bit, and those whose row saw a locally redundant one. No other block
  /// holds either kind.
  void applyDeletions() {
    F.forEachBlock([&](BasicBlock &B) {
      const BlockId Id = B.id();
      if (!G.isReachable(Id) || (!MayRedundant[Id] && DELETE[Id].none()))
        return;
      startBlock();
      // Kept instructions slide down over the deleted ones in place.
      size_t Kept = 0;
      for (size_t At = 0; At < B.Insts.size(); ++At) {
        Instruction &I = B.Insts[At];
        // A locally redundant recomputation goes; otherwise an upward-exposed
        // occurrence goes where DELETE marks it globally (partially)
        // redundant.
        LocalStep S = step(I);
        unsigned E = compactOf(S.Cand);
        bool DropLocal = S.Redundant && Member[S.Cand];
        bool DropGlobal =
            !S.Redundant && S.Exposed && E != NoExpr && DELETE[Id].test(E);
        if (DropLocal || DropGlobal) {
          ++Stats.Deleted;
          edited(Id);
          changed(S.Cand);
          if (Ctx && Ctx->remarksEnabled())
            Ctx->remark(
                RemarkKind::Delete, F, B.label(), opcodeName(I.Op),
                strprintf(DropLocal
                              ? "locally redundant recomputation of r%u removed"
                              : "redundant computation of r%u removed",
                          I.Dst));
          continue;
        }
        if (Kept != At)
          B.Insts[Kept] = std::move(I);
        ++Kept;
      }
      finishBlock(nullptr);
      B.Insts.erase(B.Insts.begin() + Kept, B.Insts.end());
    });
  }

  /// Orders the expressions inserted on one edge so operands defined by
  /// sibling insertions come first.
  std::vector<unsigned> orderInsertions(const BitVector &Ins) {
    std::vector<unsigned> List;
    for (int E = Ins.findFirst(); E != -1; E = Ins.findNext(unsigned(E)))
      List.push_back(unsigned(E));
    std::vector<unsigned> Ordered;
    // Placed is all-clear between calls: each call clears what it set.
    Placed.resize(numExprs(), 0);
    // Simple repeated sweep; dependency chains are short.
    while (Ordered.size() < List.size()) {
      bool Progress = false;
      for (unsigned E : List) {
        if (Placed[E])
          continue;
        bool Ready = true;
        for (Reg Op : expr(E).Proto.Operands) {
          unsigned OpE = compactOf(CandOf[Op]);
          if (OpE != NoExpr && Ins.test(OpE) && !Placed[OpE])
            Ready = false;
        }
        if (!Ready)
          continue;
        Ordered.push_back(E);
        Placed[E] = 1;
        Progress = true;
      }
      if (!Progress) {
        // Operand cycle between inserted expressions cannot happen with
        // acyclic lexical nesting, but fall back gracefully.
        for (unsigned E : List)
          if (!Placed[E]) {
            Ordered.push_back(E);
            Placed[E] = 1;
          }
      }
    }
    for (unsigned E : List)
      Placed[E] = 0;
    return Ordered;
  }

  /// The insertion step every placement shares: orders the expressions
  /// of \p Ins, counts each one and remarks it at block \p At as
  /// "computation of rN inserted <Where()>". Returns the computations in
  /// order.
  template <typename WhereFn>
  std::vector<Instruction> emitInsertions(const BitVector &Ins,
                                          const BasicBlock &At, WhereFn Where) {
    std::vector<Instruction> News;
    for (unsigned Ex : orderInsertions(Ins)) {
      News.push_back(expr(Ex).Proto);
      ++Stats.Inserted;
      changed(Dirty[Ex]);
      if (Ctx && Ctx->remarksEnabled())
        Ctx->remark(RemarkKind::Insert, F, At.label(),
                    opcodeName(expr(Ex).Proto.Op),
                    strprintf("computation of r%u inserted %s",
                              expr(Ex).Name, Where().c_str()));
    }
    return News;
  }

  static void splice(BasicBlock &B, size_t Pos, std::vector<Instruction> News) {
    B.Insts.insert(B.Insts.begin() + Pos, std::make_move_iterator(News.begin()),
                   std::make_move_iterator(News.end()));
  }

  void applyInsertions() {
    // Morel–Renvoise block insertions: computations placed at block ends.
    if (!BlockInsert.empty()) {
      F.forEachBlock([&](BasicBlock &B) {
        if (BlockInsert[B.id()].none())
          return;
        auto AtEnd = [] { return std::string("at block end"); };
        edited(B.id());
        splice(B, B.Insts.size() - 1,
               emitInsertions(BlockInsert[B.id()], B, AtEnd));
      });
    }
    for (const Edge &E : Edges) {
      if (E.Insert.none())
        continue;
      BasicBlock *To = F.block(E.To);
      std::vector<Instruction> News = emitInsertions(E.Insert, *To, [&] {
        return E.From == InvalidBlock
                   ? std::string("on the entry edge")
                   : strprintf("on edge ^%s -> ^%s",
                               F.block(E.From)->label().c_str(),
                               To->label().c_str());
      });
      if (E.From == InvalidBlock) {
        edited(E.To);
        splice(*To, 0, std::move(News));
      } else if (G.preds(E.To).size() == 1) {
        edited(E.To);
        splice(*To, To->firstNonPhi(), std::move(News));
      } else if (G.succs(E.From).size() == 1) {
        BasicBlock *From = F.block(E.From);
        edited(E.From);
        splice(*From, From->Insts.size() - 1, std::move(News));
      } else {
        BasicBlock *Mid = splitEdge(F, E.From, E.To);
        ++Stats.EdgesSplit;
        Splits.push_back({E.From, E.To});
        edited(Mid->id());
        splice(*Mid, 0, std::move(News));
      }
    }
  }

  Function &F;
  PREStrategy Strategy;
  const FunctionProfile *Profile; ///< Speculative placement's weights
  PREStats Stats;                 ///< the current round's
  bool Started = false;
  /// The function's CFG; recomputed after a round that split an edge.
  CFG G;

  // Session state: candidates, the universe, and each block's local facts.
  std::vector<ExprInfo> Cands;
  std::vector<unsigned> CandOf; ///< per register: its candidate, or NoExpr
  std::vector<std::vector<unsigned>> RegToExprs;
  /// Per candidate: 1 when its definitions are not all spelled alike.
  std::vector<uint8_t> Spellings;
  /// Per candidate: blocks defining it, and blocks reading it before any
  /// local definition (its §5.1 violations).
  std::vector<unsigned> DefBlocks, UseBlocks;
  std::vector<uint8_t> Member; ///< per candidate: in the universe
  unsigned NumMembers = 0, NumDropped = 0;
  std::vector<Row> Rows; ///< per block: its local facts
  /// Per block: its row saw a locally redundant computation.
  std::vector<uint8_t> MayRedundant;
  /// The local walk's clock, and its value when the current block began.
  uint64_t Clock = 0, BlockStart = 0;
  std::vector<uint64_t> DefAt;  ///< per register: the clock of its last def
  std::vector<uint64_t> CompAt; ///< per candidate: its last computation
  /// Per candidate: the walk's flags in the current block.
  std::vector<uint8_t> State;
  std::vector<unsigned> SeenList; ///< candidates with nonzero State
  std::vector<Reg> KillList;      ///< the current block's kills
  std::vector<uint8_t> Marked;    ///< per candidate: on MarkedList
  std::vector<unsigned> MarkedList;

  /// What a round changed, for the next one: edited blocks, candidates
  /// inserted or deleted, and split edges (From, To).
  std::vector<BlockId> Edited;
  std::vector<uint8_t> IsEdited, IsChanged;
  std::vector<unsigned> Changed;
  std::vector<std::pair<BlockId, BlockId>> Splits;
  /// An LCM insertion edge of an expression the speculative placement left
  /// alone for a tie; kept until the expression is solved again.
  struct TieEdge {
    BlockId From, To;
    unsigned Cand;
  };
  std::vector<TieEdge> Ties;

  // The round's solve, over the compact index of its dirty members.
  std::vector<unsigned> Dirty;   ///< compact index -> candidate, ascending
  std::vector<unsigned> Compact; ///< per candidate: compact index, or NoExpr
  std::vector<uint8_t> Placed;   ///< per expression: orderInsertions scratch
  std::vector<BitVector> ANTLOC, COMP, TRANSP;
  /// Blocks whose ANTOUT is forced empty; kept past the solve for
  /// markSplitEdges.
  std::vector<uint8_t> AntBoundary;
  std::vector<BitVector> AVIN, AVOUT, ANTIN, ANTOUT;
  std::vector<BitVector> LATERIN, DELETE;
  std::vector<BitVector> Earliest; ///< per edge (LCM)
  BitVector Empty;    ///< the empty set over the compact index
  uint64_t Words = 0; ///< words per set, for Stats.Work
  /// Per-block temporaries of the fixpoints and the insertion formulas: a
  /// meet being accumulated, a value being built, and one product term.
  BitVector Acc, Val, Term;
  /// Block-end insertions (Morel–Renvoise strategy only).
  std::vector<BitVector> BlockInsert;
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> InEdges;

  // Speculative strategy only (indexSpeculation, solveRegionCut).
  std::optional<ProfileInfo> Prices; ///< the profile joined onto G
  ExprLists Occurrences; ///< per expression: its ANTLOC blocks, in RPO
  ExprLists LCMInserts;  ///< per expression: the edges LCM inserts it on
  /// Per block: its out-edges, Edges[first] .. Edges[second - 1].
  std::vector<std::pair<unsigned, unsigned>> OutEdges;
  std::vector<uint8_t> Mark;             ///< per block: region marks
  std::vector<unsigned> InNode, OutNode; ///< per block: network node ids
  std::vector<BlockId> Touched;          ///< blocks with a nonzero Mark
  std::vector<unsigned> Work;
  MaxFlow Net;
  std::vector<char> Reach;
  std::vector<unsigned> CutInserts;
  std::vector<BlockId> CutDeletes;
};

epre::PRESession::PRESession(Function &F, PREStrategy Strategy,
                             const FunctionProfile *Profile)
    : P(std::make_unique<Impl>(F, Strategy, Profile)) {}

epre::PRESession::~PRESession() = default;

PREStats epre::PRESession::run(PassContext &Ctx) {
  PassScope Scope(Ctx, PREPass::name(), P->function());
  P->Ctx = &Ctx;
  PREStats S = P->round();
  Ctx.addStat("universe", S.UniverseSize);
  Ctx.addStat("dropped_unsafe", S.DroppedUnsafe);
  Ctx.addStat("inserted", S.Inserted);
  Ctx.addStat("deleted", S.Deleted);
  Ctx.addStat("edges_split", S.EdgesSplit);
  Ctx.addStat("speculated", S.Speculated);
  Ctx.addStat("spec_network_arcs", S.SpecNetworkArcs);
  Ctx.addStat("avail_iterations", S.AvailIterations);
  Ctx.addStat("ant_iterations", S.AntIterations);
  return S;
}

void epre::PREPass::run(Function &F, PassContext &Ctx) {
  Last = PRESession(F, Strategy, Profile).run(Ctx);
}

PREDataflow epre::analyzePartialRedundancies(Function &F) {
  return PRESession::Impl(F, PREStrategy::LazyCodeMotion, nullptr).analyze();
}

namespace {
bool PREDropAvailMeet = false;
} // namespace

void epre::fault::setPREDropAvailabilityMeet(bool Enable) {
  PREDropAvailMeet = Enable;
}

bool epre::fault::preDropAvailabilityMeet() { return PREDropAvailMeet; }
