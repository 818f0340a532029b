//===- reassoc/Reassociate.cpp --------------------------------------------===//

#include "reassoc/Reassociate.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

using namespace epre;

namespace {

/// Whether associativity of \p Op at type \p Ty may be exploited.
bool reassociable(Opcode Op, Type Ty, const ReassociateOptions &Opts) {
  if (!isAssociative(Op))
    return false;
  if (Ty == Type::F64 && !Opts.AllowFPReassoc)
    return false;
  return true;
}

/// Per-block view used by both the sorting and the distribution rewrites.
/// Global use/def counts are computed once per sweep by the owner (a full
/// function scan per *block* would be quadratic); they stay exact across a
/// sweep because sorting preserves every surviving register's use count.
struct BlockView {
  /// Index of the single local definition of a register (absent if the
  /// register is defined elsewhere or more than once).
  std::map<Reg, unsigned> LocalDef;
  const std::vector<unsigned> *Uses = nullptr;

  static BlockView build(const Function &F, const BasicBlock &B,
                         const std::vector<unsigned> &UseCount,
                         const std::vector<unsigned> &DefCount) {
    BlockView V;
    V.Uses = &UseCount;
    for (unsigned Idx = 0; Idx < B.Insts.size(); ++Idx) {
      const Instruction &I = B.Insts[Idx];
      if (I.hasDst() && I.Dst < DefCount.size() && DefCount[I.Dst] == 1 &&
          !F.isParam(I.Dst))
        V.LocalDef[I.Dst] = Idx;
    }
    return V;
  }

  /// True if \p R may be folded into a parent tree: defined once, locally,
  /// by an expression, and used exactly once (by that parent).
  bool absorbable(const BasicBlock &B, Reg R) const {
    auto It = LocalDef.find(R);
    if (It == LocalDef.end())
      return false;
    if (R >= Uses->size() || (*Uses)[R] != 1)
      return false;
    return B.Insts[It->second].isExpression();
  }
};

class Reassociator {
public:
  Reassociator(Function &F, RankMap &Ranks, const ReassociateOptions &Opts)
      : F(F), Ranks(Ranks), Opts(Opts) {}

  /// Optional remark emitter (instrumented runs only).
  PassContext *Ctx = nullptr;

  bool run() {
    bool Changed = false;
    recount();
    F.forEachBlock([&](BasicBlock &B) { Changed |= sortBlock(B); });
    if (!Opts.Distribute)
      return Changed;
    // Distribute, then re-sort, until stable (paper: "It is important to
    // re-sort sums after distribution").
    for (unsigned Round = 0; Round < 8; ++Round) {
      bool Dist = false;
      recount();
      F.forEachBlock([&](BasicBlock &B) { Dist |= distributeBlock(B); });
      if (!Dist)
        break;
      Changed = true;
      recount();
      F.forEachBlock([&](BasicBlock &B) { sortBlock(B); });
    }
    return Changed;
  }

  /// One linear scan refreshing the global use/def counts.
  void recount() {
    UseCount.assign(F.numRegs(), 0);
    DefCount.assign(F.numRegs(), 0);
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        for (Reg R : I.Operands)
          ++UseCount[R];
        if (I.hasDst())
          ++DefCount[I.Dst];
      }
    });
  }

private:
  /// Recursively flattens the operand chain of the same-op tree rooted at
  /// instruction \p Idx, marking absorbed instructions.
  void flatten(const BasicBlock &B, const BlockView &V, unsigned Idx,
               std::vector<bool> &Absorbed, std::vector<Reg> &Leaves) {
    const Instruction &I = B.Insts[Idx];
    for (Reg Op : I.Operands) {
      if (V.absorbable(B, Op)) {
        unsigned J = V.LocalDef.at(Op);
        const Instruction &Child = B.Insts[J];
        if (Child.Op == I.Op && Child.Ty == I.Ty) {
          Absorbed[J] = true;
          flatten(B, V, J, Absorbed, Leaves);
          continue;
        }
      }
      Leaves.push_back(Op);
    }
  }

  void sortByRank(std::vector<Reg> &Leaves) {
    std::stable_sort(Leaves.begin(), Leaves.end(), [&](Reg A, Reg B) {
      unsigned RA = Ranks.hasRank(A) ? Ranks.rank(A) : ~0u;
      unsigned RB = Ranks.hasRank(B) ? Ranks.rank(B) : ~0u;
      if (RA != RB)
        return RA < RB;
      return A < B;
    });
  }

  /// Emits a left-leaning chain `((l0 op l1) op l2) ...` into \p Out with
  /// final destination \p Dst. Returns the number of operations emitted.
  void emitChain(Opcode Op, Type Ty, Reg Dst, const std::vector<Reg> &Leaves,
                 std::vector<Instruction> &Out) {
    assert(Leaves.size() >= 2 && "chain needs at least two leaves");
    Reg Acc = Leaves[0];
    for (unsigned I = 1; I < Leaves.size(); ++I) {
      bool Last = I + 1 == Leaves.size();
      Reg D = Last ? Dst : F.makeReg(Ty);
      unsigned RankA = Ranks.hasRank(Acc) ? Ranks.rank(Acc) : 0;
      unsigned RankB = Ranks.hasRank(Leaves[I]) ? Ranks.rank(Leaves[I]) : 0;
      if (!Last || !Ranks.hasRank(Dst))
        Ranks.setRank(D, std::max(RankA, RankB));
      Out.push_back(Instruction::makeBinary(Op, Ty, D, Acc, Leaves[I]));
      Acc = D;
    }
  }

  bool sortBlock(BasicBlock &B) {
    BlockView V = BlockView::build(F, B, UseCount, DefCount);
    unsigned N = unsigned(B.Insts.size());
    std::vector<bool> Absorbed(N, false);
    // Root -> sorted leaf list. Found by scanning in reverse so parents
    // absorb children before the children are visited.
    std::map<unsigned, std::vector<Reg>> Rebuilds;
    bool Changed = false;
    for (unsigned Idx = N; Idx-- > 0;) {
      if (Absorbed[Idx])
        continue;
      const Instruction &I = B.Insts[Idx];
      if (!I.hasDst() || !reassociable(I.Op, I.Ty, Opts))
        continue;
      std::vector<Reg> Leaves;
      flatten(B, V, Idx, Absorbed, Leaves);
      std::vector<Reg> Sorted = Leaves;
      sortByRank(Sorted);
      Rebuilds[Idx] = std::move(Sorted);
    }
    if (Rebuilds.empty())
      return false;
    std::vector<Instruction> Out;
    Out.reserve(N);
    for (unsigned Idx = 0; Idx < N; ++Idx) {
      if (Absorbed[Idx]) {
        Changed = true;
        continue;
      }
      auto It = Rebuilds.find(Idx);
      if (It == Rebuilds.end()) {
        Out.push_back(std::move(B.Insts[Idx]));
        continue;
      }
      const Instruction &Root = B.Insts[Idx];
      // Detect no-ops to keep the pass idempotent for diffing.
      if (It->second.size() == 2 && It->second[0] == Root.Operands[0] &&
          It->second[1] == Root.Operands[1]) {
        Out.push_back(std::move(B.Insts[Idx]));
        continue;
      }
      Changed = true;
      if (Ctx && Ctx->remarksEnabled())
        Ctx->remark(RemarkKind::Reorder, F, B.label(), opcodeName(Root.Op),
                    strprintf("operands of r%u re-sorted by ascending rank "
                              "(%u leaves)",
                              Root.Dst, unsigned(It->second.size())));
      emitChain(Root.Op, Root.Ty, Root.Dst, It->second, Out);
    }
    B.Insts = std::move(Out);
    return Changed;
  }

  /// Distribution: for `w * (sum)` where rank(w) is lower than the rank of
  /// the sum, split the sum's operands into rank groups and form
  /// `w*g1 + w*g2 + ...` so the low-rank products become hoistable.
  bool distributeBlock(BasicBlock &B) {
    BlockView V = BlockView::build(F, B, UseCount, DefCount);
    unsigned N = unsigned(B.Insts.size());
    std::vector<bool> Absorbed(N, false);

    struct Plan {
      Reg W;
      std::vector<std::vector<Reg>> Groups; // ascending rank
    };
    std::map<unsigned, Plan> Plans;

    for (unsigned Idx = N; Idx-- > 0;) {
      if (Absorbed[Idx])
        continue;
      const Instruction &I = B.Insts[Idx];
      if (I.Op != Opcode::Mul || !I.hasDst())
        continue;
      if (I.Ty == Type::F64 && !Opts.AllowFPReassoc)
        continue;
      for (unsigned Side = 0; Side < 2; ++Side) {
        Reg SumReg = I.Operands[Side];
        Reg W = I.Operands[1 - Side];
        if (!V.absorbable(B, SumReg))
          continue;
        unsigned SumIdx = V.LocalDef.at(SumReg);
        const Instruction &Sum = B.Insts[SumIdx];
        if (Sum.Op != Opcode::Add || Sum.Ty != I.Ty)
          continue;
        // Flatten the sum.
        std::vector<bool> SubAbsorbed(N, false);
        std::vector<Reg> Leaves;
        SubAbsorbed[SumIdx] = true;
        flatten(B, V, SumIdx, SubAbsorbed, Leaves);
        // Group by rank.
        std::map<unsigned, std::vector<Reg>> ByRank;
        for (Reg L : Leaves)
          ByRank[Ranks.hasRank(L) ? Ranks.rank(L) : ~0u].push_back(L);
        if (ByRank.size() < 2)
          continue;
        unsigned WRank = Ranks.hasRank(W) ? Ranks.rank(W) : ~0u;
        unsigned MinG = ByRank.begin()->first;
        unsigned MaxG = ByRank.rbegin()->first;
        // Profitable only if some product ends up below the sum's rank.
        if (std::max(WRank, MinG) >= MaxG)
          continue;
        Plan P;
        P.W = W;
        for (auto &[Rk, Group] : ByRank)
          P.Groups.push_back(std::move(Group));
        for (unsigned J = 0; J < N; ++J)
          if (SubAbsorbed[J])
            Absorbed[J] = true;
        Plans[Idx] = std::move(P);
        break;
      }
    }
    if (Plans.empty())
      return false;

    std::vector<Instruction> Out;
    Out.reserve(N);
    for (unsigned Idx = 0; Idx < N; ++Idx) {
      if (Absorbed[Idx])
        continue;
      auto It = Plans.find(Idx);
      if (It == Plans.end()) {
        Out.push_back(std::move(B.Insts[Idx]));
        continue;
      }
      const Instruction &Root = B.Insts[Idx];
      Plan &P = It->second;
      if (Ctx && Ctx->remarksEnabled())
        Ctx->remark(RemarkKind::Reorder, F, B.label(), opcodeName(Root.Op),
                    strprintf("multiplication r%u distributed over sum "
                              "(%u rank groups)",
                              Root.Dst, unsigned(P.Groups.size())));
      std::vector<Reg> Products;
      for (std::vector<Reg> &Group : P.Groups) {
        Reg GSum;
        if (Group.size() == 1) {
          GSum = Group[0];
        } else {
          GSum = F.makeReg(Root.Ty);
          emitChain(Opcode::Add, Root.Ty, GSum, Group, Out);
        }
        Reg Prod = F.makeReg(Root.Ty);
        unsigned WR = Ranks.hasRank(P.W) ? Ranks.rank(P.W) : 0;
        unsigned GR = Ranks.hasRank(GSum) ? Ranks.rank(GSum) : 0;
        Ranks.setRank(Prod, std::max(WR, GR));
        Out.push_back(
            Instruction::makeBinary(Opcode::Mul, Root.Ty, Prod, P.W, GSum));
        Products.push_back(Prod);
      }
      if (Products.size() == 1) {
        // Degenerate (cannot happen given the profitability test), but keep
        // the destination correct.
        Out.push_back(Instruction::makeCopy(Root.Ty, Root.Dst, Products[0]));
      } else {
        emitChain(Opcode::Add, Root.Ty, Root.Dst, Products, Out);
      }
    }
    B.Insts = std::move(Out);
    return true;
  }

  Function &F;
  RankMap &Ranks;
  ReassociateOptions Opts;
  std::vector<unsigned> UseCount, DefCount;
};

} // namespace

namespace {

unsigned normalizeNegationImpl(Function &F, RankMap &Ranks,
                               const ReassociateOptions &Opts) {
  unsigned Rewritten = 0;
  F.forEachBlock([&](BasicBlock &B) {
    std::vector<Instruction> Out;
    Out.reserve(B.Insts.size());
    for (Instruction &I : B.Insts) {
      bool TypeOk = I.Ty == Type::I64 || Opts.AllowFPReassoc;
      if (I.Op == Opcode::Sub && TypeOk) {
        Reg T = F.makeReg(I.Ty);
        if (Ranks.hasRank(I.Operands[1]))
          Ranks.setRank(T, Ranks.rank(I.Operands[1]));
        Out.push_back(
            Instruction::makeUnary(Opcode::Neg, I.Ty, T, I.Operands[1]));
        Out.push_back(Instruction::makeBinary(Opcode::Add, I.Ty, I.Dst,
                                              I.Operands[0], T));
        ++Rewritten;
        continue;
      }
      Out.push_back(std::move(I));
    }
    B.Insts = std::move(Out);
  });
  return Rewritten;
}

} // namespace

void epre::NegNormPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  unsigned Rewritten = normalizeNegationImpl(F, *Ranks, Opts);
  Ctx.addStat("rewritten", Rewritten);
  if (Rewritten)
    F.bumpVersion();
}

void epre::ReassociatePass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  Reassociator R(F, *Ranks, Opts);
  R.Ctx = &Ctx;
  bool Changed = R.run();
  Ctx.addStat("changed", Changed);
  if (Changed)
    F.bumpVersion();
}
