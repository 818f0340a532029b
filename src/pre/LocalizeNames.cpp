//===- pre/LocalizeNames.cpp ----------------------------------------------===//

#include "pre/LocalizeNames.h"

#include "analysis/Liveness.h"

#include <cassert>
#include <map>
#include <set>
#include <vector>

using namespace epre;

namespace {

unsigned localizeExpressionNamesImpl(Function &F) {
  // Registers with at least one expression definition (candidates for the
  // §2.2 "expression name" role).
  std::set<Reg> ExprNames;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.hasDst() && I.isExpression())
        ExprNames.insert(I.Dst);
  });

  // Find names with unsafe (cross-block) uses: a use with no preceding
  // definition in its own block. Phi operands count as uses at the end of
  // the incoming predecessor.
  std::set<Reg> Unsafe;
  std::map<BlockId, std::set<Reg>> DefsIn;
  F.forEachBlock([&](const BasicBlock &B) {
    std::set<Reg> &Defined = DefsIn[B.id()];
    for (const Instruction &I : B.Insts) {
      if (!I.isPhi())
        for (Reg Op : I.Operands)
          if (ExprNames.count(Op) && !Defined.count(Op))
            Unsafe.insert(Op);
      if (I.hasDst())
        Defined.insert(I.Dst);
    }
  });
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (!I.isPhi())
        break;
      for (unsigned J = 0; J < I.Operands.size(); ++J) {
        Reg Op = I.Operands[J];
        if (ExprNames.count(Op) && !DefsIn[I.PhiBlocks[J]].count(Op))
          Unsafe.insert(Op);
      }
    }
  });
  if (Unsafe.empty())
    return 0;

  // One shadow variable per unsafe name. If a name is live into the entry
  // block (its value can flow from a parameter or the default register
  // state to a use without passing a definition), the shadow must be
  // seeded at entry; such a name is itself beyond PRE's reach, but its
  // behaviour is preserved. Names always defined before use need no seed.
  Liveness Live = Liveness::compute(F, CFG::compute(F));
  std::map<Reg, Reg> ShadowOf;
  std::vector<Instruction> EntrySeeds;
  for (Reg R : Unsafe) {
    Reg Shadow = F.makeReg(F.regType(R));
    ShadowOf[R] = Shadow;
    if (Live.isLiveIn(R, 0))
      EntrySeeds.push_back(Instruction::makeCopy(F.regType(R), Shadow, R));
  }

  std::vector<Instruction> Out; // reused across blocks to recycle capacity
  std::vector<Instruction> AfterPhis;
  F.forEachBlock([&](BasicBlock &B) {
    std::set<Reg> Defined;
    Out.clear();
    Out.reserve(B.Insts.size());
    AfterPhis.clear();
    // Shadow copies for phi definitions must wait until after the phi
    // prefix to keep "phis first" intact.
    bool InPhiPrefix = true;
    for (Instruction &I : B.Insts) {
      if (InPhiPrefix && !I.isPhi()) {
        InPhiPrefix = false;
        for (Instruction &C : AfterPhis)
          Out.push_back(std::move(C));
        AfterPhis.clear();
      }
      // Rewrite the unsafe uses (those with no local def so far).
      if (!I.isPhi()) {
        for (Reg &Op : I.Operands) {
          auto It = ShadowOf.find(Op);
          if (It != ShadowOf.end() && !Defined.count(Op))
            Op = It->second;
        }
      } else {
        for (unsigned J = 0; J < I.Operands.size(); ++J) {
          auto It = ShadowOf.find(I.Operands[J]);
          if (It != ShadowOf.end() &&
              !DefsIn[I.PhiBlocks[J]].count(I.Operands[J]))
            I.Operands[J] = It->second;
        }
      }
      bool Def = I.hasDst();
      bool IsPhi = I.isPhi();
      Reg Dst = I.Dst;
      Out.push_back(std::move(I));
      if (Def) {
        Defined.insert(Dst);
        auto It = ShadowOf.find(Dst);
        if (It != ShadowOf.end()) {
          Instruction C =
              Instruction::makeCopy(F.regType(Dst), It->second, Dst);
          if (IsPhi)
            AfterPhis.push_back(std::move(C));
          else
            Out.push_back(std::move(C));
        }
      }
    }
    // The terminator is a non-phi, so the prefix always flushed above.
    assert(AfterPhis.empty() && "block without a terminator?");
    B.Insts.swap(Out);
  });

  // Seed the shadows at the top of the entry block. The seeds read the
  // *original* registers, whose entry values are exactly what an unsafe
  // use with no reaching definition would have observed.
  BasicBlock *Entry = F.entry();
  Entry->Insts.insert(Entry->Insts.begin() + Entry->firstNonPhi(),
                      std::make_move_iterator(EntrySeeds.begin()),
                      std::make_move_iterator(EntrySeeds.end()));
  F.bumpVersion();
  return unsigned(Unsafe.size());
}

} // namespace

void epre::LocalizeNamesPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  Ctx.addStat("names", localizeExpressionNamesImpl(F));
}

