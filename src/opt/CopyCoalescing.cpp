//===- opt/CopyCoalescing.cpp ---------------------------------------------===//
///
/// Chaitin-style copy coalescing, round after round until no copy merges.
/// Only copy operands are ever queried for interference, and every
/// union-find representative is itself a copy operand, so the interference
/// graph records an edge only when both ends are copy-related (after
/// Budimlić et al., "Fast copy coalescing and live-range identification",
/// PLDI 2002). A definition of any other register scans nothing.
///
//===----------------------------------------------------------------------===//

#include "opt/CopyCoalescing.h"

#include "analysis/Liveness.h"
#include "support/SparseSet.h"

#include <vector>

using namespace epre;

namespace {

/// A flat open-addressing set of unordered register pairs.
class PairSet {
public:
  void clear() {
    Slots.assign(16, Empty);
    Size = 0;
  }

  /// Adds {A, B}; returns true if it was not already present.
  bool insert(Reg A, Reg B) {
    if (2 * (Size + 1) > Slots.size())
      grow();
    if (!insertKey(key(A, B)))
      return false;
    ++Size;
    return true;
  }

  bool contains(Reg A, Reg B) const {
    uint64_t K = key(A, B);
    for (size_t I = slot(K);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I] == K)
        return true;
      if (Slots[I] == Empty)
        return false;
    }
  }

private:
  static constexpr uint64_t Empty = ~uint64_t(0);

  static uint64_t key(Reg A, Reg B) {
    return A < B ? uint64_t(A) << 32 | B : uint64_t(B) << 32 | A;
  }
  size_t slot(uint64_t K) const {
    return size_t((K * 0x9E3779B97F4A7C15ull) >> 32) & (Slots.size() - 1);
  }
  bool insertKey(uint64_t K) {
    for (size_t I = slot(K);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I] == K)
        return false;
      if (Slots[I] == Empty) {
        Slots[I] = K;
        return true;
      }
    }
  }
  void grow() {
    std::vector<uint64_t> Old(2 * Slots.size(), Empty);
    Old.swap(Slots);
    for (uint64_t K : Old)
      if (K != Empty)
        insertKey(K);
  }

  std::vector<uint64_t> Slots;
  size_t Size = 0;
};

/// Interference among copy-related registers, with Chaitin's merge: after
/// merging a register into its representative, the representative
/// interferes with everything either did. The pair set answers queries;
/// each register's neighbour list feeds merges (entries may name registers
/// merged since, so merges look them up in the union-find).
struct Interference {
  PairSet Edges;
  std::vector<std::vector<Reg>> Nbrs; ///< indexed by register

  void reset(unsigned NumRegs) {
    Edges.clear();
    Nbrs.assign(NumRegs, {});
  }

  void add(Reg A, Reg B, uint64_t &Work) {
    ++Work;
    if (A == B || !Edges.insert(A, B))
      return;
    Nbrs[A].push_back(B);
    Nbrs[B].push_back(A);
  }
};

/// Builds the interference graph over copy-related registers: a definition
/// of `d` interferes with every register live immediately after it — except,
/// for a copy `d <- s`, with `s` itself (Chaitin's refinement: they hold the
/// same value there). The running live set tracks copy-related registers
/// only; no other register can be an edge end.
void buildInterference(const Function &F, const CFG &G, const Liveness &Live,
                       const std::vector<uint8_t> &CopyRelated,
                       SparseSet &LiveNow, Interference &IG, uint64_t &Work) {
  F.forEachBlock([&](const BasicBlock &B) {
    if (!G.isReachable(B.id()))
      return;
    LiveNow.clear();
    for (Reg R : Live.liveOut(B.id()))
      if (CopyRelated[R])
        LiveNow.insert(R);
    Work += LiveNow.size();
    for (auto It = B.Insts.rbegin(); It != B.Insts.rend(); ++It) {
      const Instruction &I = *It;
      if (I.hasDst() && CopyRelated[I.Dst]) {
        Reg D = I.Dst;
        Reg CopySrc = I.isCopy() ? I.Operands[0] : NoReg;
        Work += LiveNow.size();
        for (Reg R : LiveNow)
          if (R != D && R != CopySrc)
            IG.add(D, R, Work);
        LiveNow.erase(D);
      }
      for (Reg R : I.Operands)
        if (CopyRelated[R])
          LiveNow.insert(R);
    }
    // Parameters are live at function entry simultaneously.
    if (B.id() == 0)
      for (Reg P1 : F.params())
        for (Reg P2 : F.params())
          if (CopyRelated[P1] && CopyRelated[P2])
            IG.add(P1, P2, Work);
  });
}

unsigned coalesceCopiesImpl(Function &F, uint64_t &Work) {
  unsigned Removed = 0;
  // Coalescing renames registers and deletes self-copies; the block graph
  // and the register universe never change, so one CFG, one live set and
  // one interference store serve every round.
  CFG G = CFG::compute(F);
  unsigned NR = F.numRegs();
  std::vector<Instruction> Kept; // reused across blocks to recycle capacity
  std::vector<uint8_t> CopyRelated;
  std::vector<Reg> Parent(NR);
  SparseSet LiveNow(NR);
  Interference IG;
  while (true) {
    CopyRelated.assign(NR, 0);
    bool AnyCopy = false;
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts)
        if (I.isCopy()) {
          CopyRelated[I.Dst] = CopyRelated[I.Operands[0]] = 1;
          AnyCopy = true;
        }
    });
    if (!AnyCopy)
      break;

    Liveness Live = Liveness::compute(F, G);
    Work += Live.work();
    IG.reset(NR);
    buildInterference(F, G, Live, CopyRelated, LiveNow, IG, Work);

    // Union-find over registers; representatives prefer parameters so the
    // function signature never changes.
    for (Reg R = 0; R < NR; ++R)
      Parent[R] = R;
    auto find = [&](Reg R) {
      while (Parent[R] != R) {
        Parent[R] = Parent[Parent[R]];
        R = Parent[R];
      }
      return R;
    };

    bool Merged = false;
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts) {
        if (!I.isCopy())
          continue;
        Reg D = find(I.Dst), S = find(I.Operands[0]);
        if (D == S)
          continue;
        if (F.regType(D) != F.regType(S))
          continue;
        if (IG.Edges.contains(D, S))
          continue;
        // Two parameters cannot merge (both fixed names).
        bool DParam = F.isParam(D), SParam = F.isParam(S);
        if (DParam && SParam)
          continue;
        Reg Rep = SParam ? S : (DParam ? D : S);
        Reg Other = Rep == S ? D : S;
        // The representative inherits every interference of the other.
        Parent[Other] = Rep;
        std::vector<Reg> OtherNbrs = std::move(IG.Nbrs[Other]);
        for (Reg N : OtherNbrs)
          IG.add(Rep, find(N), Work);
        Merged = true;
      }
    });

    if (!Merged)
      break;

    // Rewrite every register to its representative; self-copies vanish.
    bool Changed = false;
    F.forEachBlock([&](BasicBlock &B) {
      Kept.clear();
      Kept.reserve(B.Insts.size());
      for (Instruction &I : B.Insts) {
        if (I.hasDst())
          I.Dst = find(I.Dst);
        for (Reg &R : I.Operands)
          R = find(R);
        if (I.isCopy() && I.Dst == I.Operands[0]) {
          ++Removed;
          Changed = true;
          continue;
        }
        Kept.push_back(std::move(I));
      }
      B.Insts.swap(Kept);
    });
    if (!Changed)
      break;
  }
  if (Removed)
    F.bumpVersion();
  return Removed;
}

} // namespace

void epre::CopyCoalescingPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  LastWork = 0;
  Ctx.addStat("copies_removed", coalesceCopiesImpl(F, LastWork));
}
