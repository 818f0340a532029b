//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include <algorithm>

using namespace epre;

namespace {

/// One occurrence of a register, bucketed by register before the walk.
struct Occurrence {
  enum Kind : uint8_t {
    Def,   ///< defined somewhere in Block
    UpUse, ///< read in Block before any definition there
    PhiUse ///< read by a successor's phi along the edge out of Block
  };
  Reg R;
  BlockId Block;
  Kind K;
};

/// Stable counting sort of (block, register) pairs by block into the
/// per-block list layout. Pairs arrive in ascending register order, so every
/// block's list comes out sorted.
void bucketByBlock(const std::vector<std::pair<BlockId, Reg>> &Pairs,
                   unsigned NB, std::vector<uint32_t> &Begin,
                   std::vector<Reg> &Regs) {
  Begin.assign(NB + 1, 0);
  for (const auto &[B, R] : Pairs)
    ++Begin[B + 1];
  for (unsigned B = 0; B < NB; ++B)
    Begin[B + 1] += Begin[B];
  Regs.resize(Pairs.size());
  std::vector<uint32_t> Next(Begin.begin(), Begin.end() - 1);
  for (const auto &[B, R] : Pairs)
    Regs[Next[B]++] = R;
}

} // namespace

Liveness Liveness::compute(const Function &F, const CFG &G) {
  Liveness L;
  unsigned NB = F.numBlocks();
  unsigned NR = F.numRegs();

  // Gather each block's definitions and upward-exposed uses (reachable
  // blocks only), and every phi use at the end of a reachable predecessor.
  // Stamps dedupe per block: DefStamp[R] / UseStamp[R] == block + 1.
  std::vector<Occurrence> Occ;
  std::vector<uint32_t> DefStamp(NR, 0), UseStamp(NR, 0);
  F.forEachBlock([&](const BasicBlock &B) {
    BlockId Id = B.id();
    bool Reachable = G.isReachable(Id);
    for (const Instruction &I : B.Insts) {
      if (I.isPhi()) {
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          if (G.isReachable(I.PhiBlocks[J]))
            Occ.push_back({I.Operands[J], I.PhiBlocks[J], Occurrence::PhiUse});
      } else if (Reachable) {
        for (Reg R : I.Operands)
          if (DefStamp[R] != Id + 1 && UseStamp[R] != Id + 1) {
            UseStamp[R] = Id + 1;
            Occ.push_back({R, Id, Occurrence::UpUse});
          }
      }
      if (Reachable && I.hasDst() && DefStamp[I.Dst] != Id + 1) {
        DefStamp[I.Dst] = Id + 1;
        Occ.push_back({I.Dst, Id, Occurrence::Def});
      }
    }
  });

  // Bucket the occurrences by register (counting sort, stable).
  std::vector<uint32_t> RegBegin(NR + 1, 0);
  for (const Occurrence &O : Occ)
    ++RegBegin[O.R + 1];
  for (unsigned R = 0; R < NR; ++R)
    RegBegin[R + 1] += RegBegin[R];
  std::vector<Occurrence> ByReg(Occ.size());
  {
    std::vector<uint32_t> Next(RegBegin.begin(), RegBegin.end() - 1);
    for (const Occurrence &O : Occ)
      ByReg[Next[O.R]++] = O;
  }

  // Walk each register backward from its uses to its definitions. Marks
  // carry the register's stamp (R + 1), so no per-register reset is needed.
  std::vector<uint32_t> DefMark(NB, 0), InMark(NB, 0), OutMark(NB, 0);
  std::vector<std::pair<BlockId, Reg>> InPairs, OutPairs;
  std::vector<BlockId> Work;
  for (Reg R = 0; R < NR; ++R) {
    uint32_t Stamp = R + 1;
    auto liveInAt = [&](BlockId B) {
      ++L.Work;
      if (InMark[B] == Stamp)
        return;
      InMark[B] = Stamp;
      InPairs.push_back({B, R});
      Work.push_back(B);
    };
    auto liveOutAt = [&](BlockId B) {
      ++L.Work;
      if (OutMark[B] == Stamp)
        return;
      OutMark[B] = Stamp;
      OutPairs.push_back({B, R});
      if (DefMark[B] != Stamp)
        liveInAt(B);
    };
    auto First = ByReg.begin() + RegBegin[R];
    auto Last = ByReg.begin() + RegBegin[R + 1];
    for (auto It = First; It != Last; ++It)
      if (It->K == Occurrence::Def)
        DefMark[It->Block] = Stamp;
    for (auto It = First; It != Last; ++It) {
      if (It->K == Occurrence::UpUse)
        liveInAt(It->Block);
      else if (It->K == Occurrence::PhiUse)
        liveOutAt(It->Block);
    }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (BlockId P : G.preds(B))
        liveOutAt(P);
    }
  }

  bucketByBlock(InPairs, NB, L.InBegin, L.InRegs);
  bucketByBlock(OutPairs, NB, L.OutBegin, L.OutRegs);
  return L;
}

bool Liveness::isLiveIn(Reg R, BlockId B) const {
  RegList In = liveIn(B);
  return std::binary_search(In.begin(), In.end(), R);
}
