//===- opt/DeadCodeElim.cpp -----------------------------------------------===//

#include "opt/DeadCodeElim.h"

#include "analysis/Liveness.h"
#include "support/BitVector.h"
#include "support/SparseSet.h"

#include <vector>

using namespace epre;

namespace {

/// Removes definitions of registers that never (transitively) reach an
/// observable effect — a store, branch condition, call-with-effect, or
/// return. Liveness alone cannot remove self-sustaining dead cycles like a
/// loop accumulator whose sum is never read (`s = s + i`), because the
/// cycle keeps itself live; this register-level mark phase can.
bool sweepUnobservableRegisters(Function &F, unsigned &Removed,
                                uint64_t &Work) {
  // Backward reachability from effects over the def-use graph, driven by a
  // register worklist (one pass over the instructions to index defs, then
  // each definition is visited once per its register's first marking —
  // no repeated whole-function scans).
  unsigned NR = F.numRegs();
  BitVector Observable(NR);
  std::vector<Reg> Worklist;
  auto mark = [&](Reg R) {
    if (!Observable.test(R)) {
      Observable.set(R);
      Worklist.push_back(R);
    }
  };
  // DefsOf: for each register, the instructions defining it (the function
  // is not in SSA form here, so there may be several). Instruction
  // pointers stay stable: nothing mutates the blocks until the sweep.
  std::vector<std::vector<const Instruction *>> DefsOf(NR);
  F.forEachBlock([&](const BasicBlock &B) {
    Work += B.Insts.size();
    for (const Instruction &I : B.Insts) {
      if (I.hasDst())
        DefsOf[I.Dst].push_back(&I);
      bool Effect = I.hasSideEffects() || I.Op == Opcode::Load || !I.hasDst();
      if (Effect)
        for (Reg R : I.Operands)
          mark(R);
    }
  });
  while (!Worklist.empty()) {
    Reg R = Worklist.back();
    Worklist.pop_back();
    Work += DefsOf[R].size();
    for (const Instruction *I : DefsOf[R])
      for (Reg Op : I->Operands)
        mark(Op);
  }
  // Loads are kept (their addresses are observable above) but their
  // results may still be dead; the liveness pass below handles that.
  bool Changed = false;
  std::vector<Instruction> Kept; // reused across blocks to recycle capacity
  F.forEachBlock([&](BasicBlock &B) {
    Kept.clear();
    Kept.reserve(B.Insts.size());
    for (Instruction &I : B.Insts) {
      bool Removable = I.hasDst() && !I.hasSideEffects() &&
                       I.Op != Opcode::Load && !Observable.test(I.Dst);
      if (Removable) {
        Changed = true;
        ++Removed;
        continue;
      }
      Kept.push_back(std::move(I));
    }
    B.Insts.swap(Kept);
  });
  return Changed;
}

bool eliminateDeadCodeImpl(Function &F, unsigned &Removed, uint64_t &Work) {
  bool EverChanged = sweepUnobservableRegisters(F, Removed, Work);
  // Only instructions are removed below, never blocks or edges: one CFG
  // serves every liveness round, and the register universe stays fixed.
  CFG G = CFG::compute(F);
  std::vector<Instruction> Kept; // reused across blocks to recycle capacity
  SparseSet LiveNow(F.numRegs());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Liveness Live = Liveness::compute(F, G);
    Work += Live.work();

    F.forEachBlock([&](BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      // Walk backwards with a running live set. A phi's operands are uses
      // in the *predecessors*, not here, but adding them to the local live
      // set is merely conservative; the next liveness round is exact.
      LiveNow.clear();
      for (Reg R : Live.liveOut(B.id()))
        LiveNow.insert(R);
      Work += LiveNow.size() + B.Insts.size();
      Kept.clear();
      for (auto It = B.Insts.rbegin(); It != B.Insts.rend(); ++It) {
        Instruction &I = *It;
        bool Needed = I.hasSideEffects() || !I.hasDst() ||
                      LiveNow.contains(I.Dst);
        if (!Needed) {
          Changed = true;
          ++Removed;
          continue;
        }
        if (I.hasDst())
          LiveNow.erase(I.Dst);
        for (Reg R : I.Operands)
          LiveNow.insert(R);
        Work += 1 + I.Operands.size();
        Kept.push_back(std::move(I));
      }
      // Instructions were moved into Kept; always write them back.
      B.Insts.assign(std::make_move_iterator(Kept.rbegin()),
                     std::make_move_iterator(Kept.rend()));
    });
    EverChanged |= Changed;
  }
  if (EverChanged)
    F.bumpVersion();
  return EverChanged;
}

} // namespace

void epre::DCEPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  unsigned Removed = 0;
  LastWork = 0;
  bool Changed = eliminateDeadCodeImpl(F, Removed, LastWork);
  Ctx.addStat("removed", Removed);
  Ctx.addStat("changed", Changed);
}

