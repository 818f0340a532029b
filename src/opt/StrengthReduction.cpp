//===- opt/StrengthReduction.cpp ------------------------------------------===//

#include "opt/StrengthReduction.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/LoopInfo.h"
#include "pre/LocalizeNames.h"
#include "ssa/SSA.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace epre;

namespace {

/// A basic induction variable i = phi(Init from preheader, Next from latch)
/// with Next = i +/- Step, Step loop-invariant.
struct BasicIV {
  Reg PhiDst = NoReg;
  Reg Init = NoReg;        ///< value on the entry edge
  Reg Next = NoReg;        ///< value on the back edge
  Reg Step = NoReg;        ///< loop-invariant step operand
  Opcode StepOp = Opcode::Add; ///< Add or Sub
  BlockId Header = InvalidBlock;
  BlockId EntryPred = InvalidBlock;
  BlockId LatchPred = InvalidBlock;
};

class StrengthReducer {
public:
  explicit StrengthReducer(Function &F)
      : F(F), G(CFG::compute(F)),
        LI(LoopInfo::compute(F, G, DominatorTree::compute(F, G))) {}

  SRStats run() {
    // Innermost loops first (deeper loops have higher Depth).
    std::vector<unsigned> Order(LI.loops().size());
    for (unsigned I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      return LI.loops()[A].Depth > LI.loops()[B].Depth;
    });
    for (unsigned Idx : Order)
      reduceLoop(LI.loops()[Idx]);
    return Stats;
  }

private:
  bool inLoop(const Loop &L, BlockId B) const {
    return std::binary_search(L.Blocks.begin(), L.Blocks.end(), B);
  }

  /// Finds the defining instruction of \p R (SSA: unique), or nullptr.
  const Instruction *defOf(Reg R, BlockId *BlockOut = nullptr) const {
    auto It = Defs.find(R);
    if (It == Defs.end())
      return nullptr;
    if (BlockOut)
      *BlockOut = It->second.second;
    return It->second.first;
  }

  void indexDefs() {
    Defs.clear();
    F.forEachBlock([&](BasicBlock &B) {
      for (Instruction &I : B.Insts)
        if (I.hasDst())
          Defs[I.Dst] = {&I, B.id()};
    });
  }

  /// Loop-invariant: defined outside the loop, a parameter, or a constant
  /// (immediate loads are invariant wherever they sit).
  bool isInvariant(const Loop &L, Reg R) const {
    auto It = Defs.find(R);
    if (It == Defs.end())
      return true; // parameter
    const Instruction *D = It->second.first;
    if (D->Op == Opcode::LoadI || D->Op == Opcode::LoadF)
      return true;
    return !inLoop(L, It->second.second);
  }

  /// Returns a register holding \p R's (invariant) value that is usable at
  /// the end of \p PH: \p R itself when its definition is outside the
  /// loop, or a re-materialized constant when the defining immediate load
  /// sits inside the loop.
  Reg materializeAt(const Loop &L, Reg R, BasicBlock *PH) {
    auto It = Defs.find(R);
    if (It == Defs.end() || !inLoop(L, It->second.second))
      return R;
    const Instruction *D = It->second.first;
    assert((D->Op == Opcode::LoadI || D->Op == Opcode::LoadF) &&
           "only constants can be invariant-but-inside");
    Reg Fresh = F.makeReg(F.regType(R));
    Instruction Clone = *D;
    Clone.Dst = Fresh;
    PH->insertBeforeTerminator(std::move(Clone));
    return Fresh;
  }

  void reduceLoop(const Loop &L) {
    ++Stats.LoopsVisited;
    indexDefs();

    // Shape requirement: header with exactly two predecessors, one from
    // inside (latch) and one from outside (entry edge).
    std::span<const BlockId> Preds = G.preds(L.Header);
    if (Preds.size() != 2)
      return;
    BlockId Entry = InvalidBlock, Latch = InvalidBlock;
    for (BlockId P : Preds) {
      if (inLoop(L, P))
        Latch = P;
      else
        Entry = P;
    }
    if (Entry == InvalidBlock || Latch == InvalidBlock)
      return;

    // Collect basic IVs from the header phis.
    std::vector<BasicIV> IVs;
    BasicBlock *Header = F.block(L.Header);
    for (const Instruction &Phi : Header->Insts) {
      if (!Phi.isPhi())
        break;
      if (Phi.Ty != Type::I64 || Phi.Operands.size() != 2)
        continue;
      BasicIV IV;
      IV.PhiDst = Phi.Dst;
      IV.Header = L.Header;
      IV.EntryPred = Entry;
      IV.LatchPred = Latch;
      for (unsigned J = 0; J < 2; ++J) {
        if (Phi.PhiBlocks[J] == Entry)
          IV.Init = Phi.Operands[J];
        else if (Phi.PhiBlocks[J] == Latch)
          IV.Next = Phi.Operands[J];
      }
      if (IV.Init == NoReg || IV.Next == NoReg)
        continue;
      // The back-edge value usually arrives through the copy that defines
      // the variable name; look through copies to the arithmetic.
      Reg NextVal = IV.Next;
      BlockId NextBlock = InvalidBlock;
      const Instruction *NextDef = defOf(NextVal, &NextBlock);
      for (unsigned Guard = 0; Guard < 8 && NextDef && NextDef->isCopy();
           ++Guard) {
        NextVal = NextDef->Operands[0];
        NextDef = defOf(NextVal, &NextBlock);
      }
      if (!NextDef || !inLoop(L, NextBlock))
        continue;
      IV.Next = NextVal; // the arithmetic value, past the variable copies
      if (NextDef->Op == Opcode::Add) {
        if (NextDef->Operands[0] == IV.PhiDst &&
            isInvariant(L, NextDef->Operands[1]))
          IV.Step = NextDef->Operands[1];
        else if (NextDef->Operands[1] == IV.PhiDst &&
                 isInvariant(L, NextDef->Operands[0]))
          IV.Step = NextDef->Operands[0];
        IV.StepOp = Opcode::Add;
      } else if (NextDef->Op == Opcode::Sub &&
                 NextDef->Operands[0] == IV.PhiDst &&
                 isInvariant(L, NextDef->Operands[1])) {
        IV.Step = NextDef->Operands[1];
        IV.StepOp = Opcode::Sub;
      }
      if (IV.Step == NoReg)
        continue;
      ++Stats.BasicIVs;
      IVs.push_back(IV);
    }
    if (IVs.empty())
      return;

    // Candidates: integer multiplications of an IV (phi value or its
    // next value) by a loop-invariant factor, computed inside the loop.
    struct Candidate {
      Reg MulDst; ///< destination of the multiplication (SSA: unique)
      unsigned IVIndex;
      Reg Factor;
      bool OnNext; ///< multiplies IV.Next rather than IV.PhiDst
    };
    std::vector<Candidate> Candidates;
    F.forEachBlock([&](BasicBlock &B) {
      if (!inLoop(L, B.id()))
        return;
      for (Instruction &I : B.Insts) {
        if (I.Op != Opcode::Mul || I.Ty != Type::I64)
          continue;
        for (unsigned Side = 0; Side < 2; ++Side) {
          Reg IVal = I.Operands[Side];
          Reg K = I.Operands[1 - Side];
          if (!isInvariant(L, K))
            continue;
          for (unsigned IVIdx = 0; IVIdx < IVs.size(); ++IVIdx) {
            const BasicIV &IV = IVs[IVIdx];
            if (IVal == IV.PhiDst)
              Candidates.push_back({I.Dst, IVIdx, K, false});
            else if (IVal == IV.Next)
              Candidates.push_back({I.Dst, IVIdx, K, true});
            else
              continue;
            Side = 2; // candidate found; stop scanning sides
            break;
          }
        }
      }
    });
    if (Candidates.empty())
      return;

    // One derived IV per (basic IV, factor); candidates sharing them reuse
    // the same phi.
    std::map<std::pair<Reg, Reg>, std::pair<Reg, Reg>> Derived; // ->(j2,j3)
    for (const Candidate &Cand : Candidates) {
      struct CandView {
        const BasicIV *IV;
        Reg Factor;
        bool OnNext;
      } C{&IVs[Cand.IVIndex], Cand.Factor, Cand.OnNext};
      auto Key = std::make_pair(C.IV->PhiDst, C.Factor);
      auto It = Derived.find(Key);
      if (It == Derived.end()) {
        Reg J2 = F.makeReg(Type::I64); // the derived phi value
        Reg J3 = F.makeReg(Type::I64); // its value after the step

        // Preheader computations: j0 = init * k, dstep = step * k.
        Reg J0 = F.makeReg(Type::I64);
        Reg DStep = F.makeReg(Type::I64);
        BasicBlock *EntryB = F.block(C.IV->EntryPred);
        Reg KOut = materializeAt(L, C.Factor, EntryB);
        Reg StepOut = materializeAt(L, C.IV->Step, EntryB);
        EntryB->insertBeforeTerminator(Instruction::makeBinary(
            Opcode::Mul, Type::I64, J0, C.IV->Init, KOut));
        EntryB->insertBeforeTerminator(Instruction::makeBinary(
            Opcode::Mul, Type::I64, DStep, StepOut, KOut));

        // The derived step, right after the basic IV's step.
        BlockId NextBlock = InvalidBlock;
        defOf(C.IV->Next, &NextBlock);
        BasicBlock *NB = F.block(NextBlock);
        for (unsigned Idx = 0; Idx < NB->Insts.size(); ++Idx) {
          if (NB->Insts[Idx].Dst != C.IV->Next)
            continue;
          NB->Insts.insert(NB->Insts.begin() + Idx + 1,
                           Instruction::makeBinary(C.IV->StepOp, Type::I64,
                                                   J3, J2, DStep));
          break;
        }

        // The derived phi at the header.
        Instruction Phi = Instruction::makePhi(Type::I64, J2);
        Phi.addPhiIncoming(J0, C.IV->EntryPred);
        Phi.addPhiIncoming(J3, C.IV->LatchPred);
        BasicBlock *HB = F.block(C.IV->Header);
        HB->Insts.insert(HB->Insts.begin(), std::move(Phi));

        It = Derived.emplace(Key, std::make_pair(J2, J3)).first;
        indexDefs(); // instruction addresses moved
      }
      // Replace the multiplication with a copy of the derived value.
      Reg Val = C.OnNext ? It->second.second : It->second.first;
      auto DefIt = Defs.find(Cand.MulDst);
      if (DefIt == Defs.end())
        continue;
      Instruction *Mul = DefIt->second.first;
      *Mul = Instruction::makeCopy(Type::I64, Cand.MulDst, Val);
      ++Stats.Reduced;
      indexDefs();
    }
  }

  Function &F;
  // The reducer never changes the block graph, so these stay valid.
  const CFG G;
  const LoopInfo LI;
  SRStats Stats;
  std::map<Reg, std::pair<Instruction *, BlockId>> Defs;
};

} // namespace

namespace {

SRStats strengthReduceSSAImpl(Function &F) {
  SRStats Stats = StrengthReducer(F).run();
  if (Stats.Reduced)
    F.bumpVersion(); // new phis, preheader computations, copy rewrites
  return Stats;
}

} // namespace

void epre::StrengthReductionPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  SSAOptions Opts;
  Opts.FoldCopies = false;
  SSABuildPass(Opts).run(F, Ctx);
  Last = strengthReduceSSAImpl(F);
  SSADestroyPass().run(F, Ctx);
  LocalizeNamesPass().run(F, Ctx);
  Ctx.addStat("loops_visited", Last.LoopsVisited);
  Ctx.addStat("basic_ivs", Last.BasicIVs);
  Ctx.addStat("reduced", Last.Reduced);
}

