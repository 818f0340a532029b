//===- tests/reference/ReferenceInterpreter.cpp ---------------------------===//

#include "ReferenceInterpreter.h"

#include "instrument/Profile.h"

#include <algorithm>

using namespace epre;

namespace {

/// The dispatch loop, instantiated once without profiling and once with
/// it; every profiling touch sits behind `if constexpr`.
template <bool Profiling>
ExecResult run(const Function &F, const std::vector<RtValue> &Args,
               MemoryImage &Mem, const ExecLimits &Limits,
               ProfileCollector *Prof) {
  ExecResult R;
  R.OpCounts.assign(unsigned(Opcode::Phi) + 1, 0);
  R.TrapFunction = F.name();

  // Trap with no block context (argument mismatch, erased block).
  auto trap = [&](TrapKind Kind, std::string Why) {
    R.Trapped = true;
    R.Kind = Kind;
    R.TrapReason = Why + strprintf(" (in @%s)", F.name().c_str());
    return R;
  };
  // Trap at instruction \p Idx of block \p B.
  auto trapAt = [&](TrapKind Kind, std::string Why, const BasicBlock &B,
                    unsigned Idx) {
    R.Trapped = true;
    R.Kind = Kind;
    R.TrapBlock = B.label();
    R.TrapInstIndex = Idx;
    R.TrapReason =
        Why + strprintf(" (in @%s, block ^%s, inst %u)", F.name().c_str(),
                        B.label().c_str(), Idx);
    return R;
  };

  if (Args.size() != F.params().size())
    return trap(TrapKind::ArgumentMismatch, "argument count mismatch");

  // Register file, zero-initialized with each register's declared type.
  std::vector<RtValue> Regs(F.numRegs());
  for (Reg RG = 1; RG < F.numRegs(); ++RG)
    Regs[RG].Ty = F.regType(RG);
  for (unsigned I = 0; I < Args.size(); ++I) {
    if (Args[I].Ty != F.regType(F.params()[I]))
      return trap(TrapKind::ArgumentMismatch, "argument type mismatch");
    Regs[F.params()[I]] = Args[I];
  }

  if constexpr (Profiling)
    Prof->reset(F);

  const uint64_t MaxOps = std::min(Limits.MaxOps, detail::FuelSaturation);
  std::vector<std::pair<Reg, RtValue>> PhiVals;
  std::vector<RtValue> Ops;
  BlockId Cur = 0, Prev = InvalidBlock;
  while (true) {
    const BasicBlock *B = F.block(Cur);
    if (!B)
      return trap(TrapKind::ErasedBlock,
                  strprintf("branch to erased block b%u", Cur));
    if constexpr (Profiling)
      Prof->enterBlock(Cur);

    // Phis read their inputs in parallel at block entry.
    unsigned FirstNonPhi = B->firstNonPhi();
    PhiVals.clear();
    for (unsigned I = 0; I < FirstNonPhi; ++I) {
      const Instruction &Phi = B->Insts[I];
      bool Found = false;
      for (unsigned J = 0; J < Phi.Operands.size(); ++J) {
        if (Phi.PhiBlocks[J] == Prev) {
          PhiVals.push_back({Phi.Dst, Regs[Phi.Operands[J]]});
          Found = true;
          break;
        }
      }
      if (!Found)
        return trapAt(TrapKind::MissingPhiEntry,
                      "phi has no entry for predecessor", *B, I);
    }
    for (auto &[Dst, V] : PhiVals)
      Regs[Dst] = V;

    for (unsigned Idx = FirstNonPhi; Idx < B->Insts.size(); ++Idx) {
      const Instruction &I = B->Insts[Idx];
      unsigned Cost = opcodeCost(I.Op);
      ++R.DynOps;
      R.WeightedCost += Cost;
      ++R.OpCounts[unsigned(I.Op)];
      if constexpr (Profiling)
        Prof->countOp(Cur, Cost, classifyOp(I.Op, I.Ty));
      // The limit check comes after counting so DynOps == sum(OpCounts)
      // holds on every exit path, including this trap.
      if (R.DynOps > MaxOps)
        return trapAt(TrapKind::FuelExhausted, "operation limit exceeded", *B,
                      Idx);

      switch (I.Op) {
      case Opcode::Br:
        if constexpr (Profiling)
          Prof->takeEdge(Cur, I.Succs[0]);
        Prev = Cur;
        Cur = I.Succs[0];
        break;
      case Opcode::Cbr: {
        BlockId Target = Regs[I.Operands[0]].I != 0 ? I.Succs[0] : I.Succs[1];
        if constexpr (Profiling)
          Prof->takeEdge(Cur, Target);
        Prev = Cur;
        Cur = Target;
        break;
      }
      case Opcode::Ret:
        if (!I.Operands.empty()) {
          R.HasReturn = true;
          R.ReturnValue = Regs[I.Operands[0]];
        }
        return R;
      case Opcode::Load: {
        int64_t Addr = Regs[I.Operands[0]].I;
        if (!Mem.inBounds(Addr, 8))
          return trapAt(TrapKind::MemoryOutOfBounds,
                        strprintf("load out of bounds at address %lld",
                                  (long long)Addr),
                        *B, Idx);
        Regs[I.Dst] = I.Ty == Type::F64 ? RtValue::ofF(Mem.loadF64(Addr))
                                        : RtValue::ofI(Mem.loadI64(Addr));
        break;
      }
      case Opcode::Store: {
        int64_t Addr = Regs[I.Operands[0]].I;
        if (!Mem.inBounds(Addr, 8))
          return trapAt(TrapKind::MemoryOutOfBounds,
                        strprintf("store out of bounds at address %lld",
                                  (long long)Addr),
                        *B, Idx);
        const RtValue &V = Regs[I.Operands[1]];
        if (V.Ty == Type::F64)
          Mem.storeF64(Addr, V.F);
        else
          Mem.storeI64(Addr, V.I);
        break;
      }
      default: {
        Ops.clear();
        for (Reg Op : I.Operands)
          Ops.push_back(Regs[Op]);
        RtValue Out;
        if (!evalPure(I, Ops, Out))
          return trapAt(TrapKind::ArithmeticTrap,
                        std::string("arithmetic trap in ") + opcodeName(I.Op),
                        *B, Idx);
        Regs[I.Dst] = Out;
        break;
      }
      }
      if (I.isTerminator())
        break;
    }
  }
}

} // namespace

ExecResult epre::interpretReference(const Function &F,
                                    const std::vector<RtValue> &Args,
                                    MemoryImage &Mem, const ExecLimits &Limits,
                                    ProfileCollector *Prof) {
  if (Prof)
    return run<true>(F, Args, Mem, Limits, Prof);
  return run<false>(F, Args, Mem, Limits, nullptr);
}
