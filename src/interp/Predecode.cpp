//===- interp/Predecode.cpp -----------------------------------------------===//

#include "interp/Predecode.h"

#include "instrument/Profile.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace epre;

// The build is GCC/Clang only, so the dispatch loop always uses computed
// goto and the branch hint below is always available.
#define EPRE_UNLIKELY(X) __builtin_expect(!!(X), 0)

const char *epre::interpDispatchMode() { return "computed-goto"; }

//===----------------------------------------------------------------------===//
// Predecoder
//===----------------------------------------------------------------------===//

bool Predecoder::predecode(const Function &F, Arena &A, BytecodeFunction &Out) {
  Out = BytecodeFunction();
  if (F.numBlocks() == 0 || !emitFunction(F))
    return false;

  // Execution enters block 0 along a pseudo-edge from InvalidBlock, so entry
  // phis (a missing-phi stub) and an erased entry (the erased-block stub)
  // need no special case. Then resolve branch targets: each fixup becomes
  // either the successor's BlockEntry pc directly (no phis) or the pc of a
  // per-edge sequence of parallel-copy moves (or a trap stub) appended here.
  uint32_t StartPC = emitEdge(F, InvalidBlock, 0);
  for (size_t I = 0; I < Fixups.size(); ++I) {
    const Fixup Fx = Fixups[I];
    uint32_t PC = emitEdge(F, Fx.Pred, Fx.Succ);
    if (Fx.Second)
      Code[Fx.PC].Imm2 = int64_t(PC);
    else
      Code[Fx.PC].Imm = int64_t(PC);
  }

  PInst *C = A.allocArray<PInst>(Code.size());
  std::copy(Code.begin(), Code.end(), C);
  PBlockInfo *B = A.allocArray<PBlockInfo>(PBlocks.size());
  std::copy(PBlocks.begin(), PBlocks.end(), B);

  Out.Src = &F;
  Out.Code = C;
  Out.CodeLen = uint32_t(Code.size());
  Out.Blocks = B;
  Out.NumBlocks = uint32_t(PBlocks.size());
  Out.StartPC = StartPC;
  Out.RegFileSize = F.numRegs() + MaxPhis;
  Out.FusedCount = Fused;
  Out.SrcVersion = F.version();
  return true;
}

bool Predecoder::emitFunction(const Function &F) {
  Code.clear();
  PBlocks.clear();
  Fixups.clear();
  MaxPhis = 0;
  Fused = 0;
  PBlockOf.assign(F.numBlocks(), ~0u);

  bool OK = true;
  F.forEachBlock([&](const BasicBlock &B) {
    if (!OK)
      return;
    uint32_t PBIdx = uint32_t(PBlocks.size());
    PBlockOf[B.id()] = PBIdx;
    PBlocks.push_back({});
    OK = emitBlock(F, B, PBIdx);
  });
  return OK;
}

bool Predecoder::emitBlock(const Function &F, const BasicBlock &B,
                           uint32_t PBIdx) {
  PBlockInfo &Info = PBlocks[PBIdx];
  Info.OrigId = B.id();
  Info.FirstPC = uint32_t(Code.size());

  // Execution stops at the first terminator; anything after it in the
  // vector is unreachable and not translated. A block with no terminator at
  // all is verifier-rejected, and so are phis after the first non-phi.
  unsigned FirstNonPhi = B.firstNonPhi();
  unsigned ExecLen = 0;
  for (unsigned I = FirstNonPhi; I < B.Insts.size(); ++I) {
    if (B.Insts[I].isPhi())
      return false;
    if (B.Insts[I].isTerminator()) {
      ExecLen = I + 1;
      break;
    }
  }
  if (ExecLen == 0)
    return false;

  Info.FirstNonPhi = FirstNonPhi;
  Info.ExecLen = ExecLen;
  Info.Ops = ExecLen - FirstNonPhi;
  Info.Weight = 0;
  for (unsigned I = FirstNonPhi; I < ExecLen; ++I)
    Info.Weight += opcodeCost(B.Insts[I].Op);
  MaxPhis = std::max(MaxPhis, FirstNonPhi);

  // Register-slot, successor-id and phi-shape sanity for everything that
  // can execute (phis included: their regs feed the edge move sequences).
  // The executor indexes the register file unchecked, so reject what the
  // verifier would.
  for (unsigned I = 0; I < ExecLen; ++I) {
    const Instruction &Ins = B.Insts[I];
    if (Ins.isPhi() && Ins.Operands.size() != Ins.PhiBlocks.size())
      return false;
    if (Ins.Dst >= F.numRegs())
      return false;
    for (Reg R : Ins.Operands)
      if (R >= F.numRegs())
        return false;
    for (BlockId S : Ins.Succs)
      if (S >= F.numBlocks())
        return false;
  }

  {
    PInst E{};
    E.Op = POp::BlockEntry;
    E.A = PBIdx;
    E.Imm = int64_t(Info.Ops);
    E.Blk = PBIdx;
    Code.push_back(E);
  }

  auto base = [&](unsigned Idx) {
    PInst P{};
    P.Blk = PBIdx;
    P.OpsInto = uint32_t(Idx - FirstNonPhi + 1);
    P.Ty = B.Insts[Idx].Ty;
    return P;
  };

  // Superinstruction peephole over adjacent pairs. Both register writes
  // still happen, so fusion needs no liveness proof; the first half of each
  // pair (add/mul/cmp) can never trap, so a behavioral trap only ever points
  // at the second half (the load). A fuel trap may land on either half.
  auto tryFuse = [&](unsigned I) -> bool {
    if (I + 1 >= ExecLen)
      return false;
    const Instruction &I0 = B.Insts[I];
    const Instruction &I1 = B.Insts[I + 1];
    PInst P = base(I + 1);
    // Address arithmetic feeding a load.
    if (I0.Op == Opcode::Add && I0.Ty == Type::I64 &&
        I0.Operands.size() == 2 && I0.Dst != NoReg && I1.Op == Opcode::Load &&
        I1.Operands.size() == 1 && I1.Operands[0] == I0.Dst) {
      P.Op = POp::FuseAddLoad;
      P.Ty = I1.Ty;
      P.Dst = I0.Dst;
      P.A = I0.Operands[0];
      P.B = I0.Operands[1];
      P.Dst2 = I1.Dst;
      Code.push_back(P);
      ++Fused;
      return true;
    }
    // Multiply feeding an add of the same type.
    if (I0.Op == Opcode::Mul && I0.Operands.size() == 2 && I0.Dst != NoReg &&
        I1.Op == Opcode::Add && I1.Ty == I0.Ty && I1.Operands.size() == 2 &&
        (I1.Operands[0] == I0.Dst || I1.Operands[1] == I0.Dst)) {
      P.Op = I0.Ty == Type::I64 ? POp::FuseMulAddI : POp::FuseMulAddF;
      P.Ty = I1.Ty;
      P.Dst = I0.Dst;
      P.A = I0.Operands[0];
      P.B = I0.Operands[1];
      P.Dst2 = I1.Dst;
      if (I1.Operands[0] == I0.Dst) {
        P.X = I1.Operands[1]; // product + X
      } else {
        P.X = I1.Operands[0]; // X + product: keep FP operand order bit-exact
        P.Flags = 1;
      }
      Code.push_back(P);
      ++Fused;
      return true;
    }
    // Compare feeding the conditional branch on its result.
    if (isComparison(I0.Op) && I0.Operands.size() == 2 && I0.Dst != NoReg &&
        I1.Op == Opcode::Cbr && I1.Operands.size() == 1 &&
        I1.Succs.size() == 2 && I1.Operands[0] == I0.Dst) {
      P.Op = I0.Ty == Type::I64 ? POp::FuseCmpCbrI : POp::FuseCmpCbrF;
      P.Sub = uint8_t(I0.Op);
      P.Ty = I1.Ty;
      P.Dst = I0.Dst;
      P.A = I0.Operands[0];
      P.B = I0.Operands[1];
      P.X = I1.Succs[0];
      P.Y = I1.Succs[1];
      Fixups.push_back({uint32_t(Code.size()), B.id(), I1.Succs[0], false});
      Fixups.push_back({uint32_t(Code.size()), B.id(), I1.Succs[1], true});
      Code.push_back(P);
      ++Fused;
      return true;
    }
    return false;
  };

  auto emitOne = [&](unsigned Idx) -> bool {
    const Instruction &I = B.Insts[Idx];
    // The executor reads fixed operand slots: refuse wrong operand counts,
    // which the verifier rejects too.
    int FO = fixedOperandCount(I.Op);
    if (FO >= 0 && int(I.Operands.size()) != FO)
      return false;
    PInst P = base(Idx);
    bool IsI = I.Ty == Type::I64;
    switch (I.Op) {
    case Opcode::LoadI:
      P.Op = POp::LoadImmI;
      P.Dst = I.Dst;
      P.Imm = I.IImm;
      break;
    case Opcode::LoadF:
      P.Op = POp::LoadImmF;
      P.Dst = I.Dst;
      std::memcpy(&P.Imm, &I.FImm, 8);
      break;
    case Opcode::Add:
      P.Op = IsI ? POp::AddI : POp::AddF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Sub:
      P.Op = IsI ? POp::SubI : POp::SubF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Mul:
      P.Op = IsI ? POp::MulI : POp::MulF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Div:
      P.Op = IsI ? POp::DivI : POp::DivF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Min:
      P.Op = IsI ? POp::MinI : POp::MinF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Max:
      P.Op = IsI ? POp::MaxI : POp::MaxF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Neg:
      P.Op = IsI ? POp::NegI : POp::NegF;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      break;
    case Opcode::Mod:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
      if (!IsI)
        return false; // F64-typed integer-only op: verifier-rejected
      P.Op = I.Op == Opcode::Mod   ? POp::ModI
             : I.Op == Opcode::And ? POp::AndI
             : I.Op == Opcode::Or  ? POp::OrI
             : I.Op == Opcode::Xor ? POp::XorI
             : I.Op == Opcode::Shl ? POp::ShlI
                                   : POp::ShrI;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Not:
      if (!IsI)
        return false;
      P.Op = POp::NotI;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      break;
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      P.Op = IsI ? POp::CmpI : POp::CmpF;
      P.Sub = uint8_t(I.Op);
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::I2F:
      P.Op = POp::I2FOp;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      break;
    case Opcode::F2I:
      P.Op = POp::F2IOp;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      break;
    case Opcode::Copy:
      P.Op = POp::CopyI;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      break;
    case Opcode::Load:
      P.Op = POp::LoadMem;
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      break;
    case Opcode::Store:
      P.Op = POp::StoreMem;
      P.A = I.Operands[0];
      P.B = I.Operands[1];
      break;
    case Opcode::Call:
      if (I.Operands.empty() || I.Operands.size() > 2)
        return false;
      P.Op = POp::CallOp;
      P.Sub = uint8_t(I.Intr);
      P.Flags = uint8_t(I.Operands.size());
      P.Dst = I.Dst;
      P.A = I.Operands[0];
      P.B = I.Operands.size() > 1 ? I.Operands[1] : 0;
      break;
    case Opcode::Br:
      if (I.Succs.size() != 1)
        return false;
      P.Op = POp::Br;
      P.X = I.Succs[0];
      Fixups.push_back({uint32_t(Code.size()), B.id(), I.Succs[0], false});
      break;
    case Opcode::Cbr:
      if (I.Succs.size() != 2)
        return false;
      P.Op = POp::CbrOp;
      P.A = I.Operands[0];
      P.X = I.Succs[0];
      P.Y = I.Succs[1];
      Fixups.push_back({uint32_t(Code.size()), B.id(), I.Succs[0], false});
      Fixups.push_back({uint32_t(Code.size()), B.id(), I.Succs[1], true});
      break;
    case Opcode::Ret:
      P.Op = POp::RetOp;
      if (!I.Operands.empty()) {
        P.Flags = 1;
        P.A = I.Operands[0];
      }
      break;
    case Opcode::Phi:
      return false; // unreachable: phis rejected above
    }
    Code.push_back(P);
    return true;
  };

  unsigned I = FirstNonPhi;
  while (I < ExecLen) {
    if (tryFuse(I)) {
      I += 2;
      continue;
    }
    if (!emitOne(I))
      return false;
    ++I;
  }
  return true;
}

uint32_t Predecoder::emitEdge(const Function &F, BlockId Pred, BlockId Succ) {
  const BasicBlock *S = F.block(Succ);
  if (!S) {
    // Branch into a tombstone: the branch itself executes (and counts),
    // then the run traps looking the block up.
    uint32_t PC = uint32_t(Code.size());
    PInst P{};
    P.Op = POp::TrapErased;
    P.Imm = int64_t(Succ);
    Code.push_back(P);
    return PC;
  }
  uint32_t SPB = PBlockOf[Succ];
  unsigned NPhis = S->firstNonPhi();
  if (NPhis == 0)
    return PBlocks[SPB].FirstPC;

  uint32_t PC = uint32_t(Code.size());

  // Select each phi's incoming value for this predecessor. Phis read them
  // all before writing any; a missing entry traps before any write, so the
  // trap stub replaces the whole sequence.
  Moves.clear();
  for (unsigned I = 0; I < NPhis; ++I) {
    const Instruction &Phi = S->Insts[I];
    int Src = -1;
    for (unsigned J = 0; J < Phi.Operands.size(); ++J)
      if (Phi.PhiBlocks[J] == Pred) {
        Src = int(J);
        break;
      }
    if (Src < 0) {
      PInst P{};
      P.Op = POp::TrapMissingPhi;
      P.A = SPB;
      P.B = I;
      Code.push_back(P);
      return PC;
    }
    Moves.push_back({Phi.Dst, Phi.Operands[unsigned(Src)]});
  }

  auto emitMove = [&](Reg D, Reg Sr) {
    PInst P{};
    P.Op = POp::PhiMove;
    P.Dst = D;
    P.A = Sr;
    Code.push_back(P);
  };
  // Scratch slots past the register file hold saved values; a sequence
  // needs at most one per phi.
  Reg Scratch = Reg(F.numRegs());

  // Two phis naming one destination: the later phi wins, as when every
  // source is read before any destination is written in phi order.
  size_t N = 0;
  for (size_t I = 0; I < Moves.size(); ++I) {
    bool Overwritten = false;
    for (size_t K = I + 1; K < Moves.size() && !Overwritten; ++K)
      Overwritten = Moves[K].Dst == Moves[I].Dst;
    if (!Overwritten)
      Moves[N++] = Moves[I];
  }
  sequenceParallelCopies(std::span(Moves.data(), N), emitMove,
                         [&](Reg) { return Scratch++; });

  PInst J{};
  J.Op = POp::Jump;
  J.Imm = int64_t(PBlocks[SPB].FirstPC);
  Code.push_back(J);
  return PC;
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

namespace {

bool cmpI(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::CmpEq: return A == B;
  case Opcode::CmpNe: return A != B;
  case Opcode::CmpLt: return A < B;
  case Opcode::CmpLe: return A <= B;
  case Opcode::CmpGt: return A > B;
  default:            return A >= B;
  }
}

bool cmpF(Opcode Op, double A, double B) {
  switch (Op) {
  case Opcode::CmpEq: return A == B;
  case Opcode::CmpNe: return A != B;
  case Opcode::CmpLt: return A < B;
  case Opcode::CmpLe: return A <= B;
  case Opcode::CmpGt: return A > B;
  default:            return A >= B;
  }
}

bool isFusedPair(POp Op) {
  return Op == POp::FuseAddLoad || Op == POp::FuseMulAddI ||
         Op == POp::FuseMulAddF || Op == POp::FuseCmpCbrI ||
         Op == POp::FuseCmpCbrF;
}

/// What one run's hot and careful loops share.
struct RunState {
  const Function &F;
  const BytecodeFunction &BF;
  MemoryImage &Mem;
  ProfileCollector *Prof;
  RtValue *Regs;
  uint64_t *Entries; ///< per-pblock entry counts
  uint64_t Clamp;    ///< the run's fuel
  ExecResult &R;
};

/// The dispatch loop from \p p with \p Residual fuel left, instantiated
/// with and without profiling and in two fuel modes. The hot mode
/// (Careful false) charges fuel once per block entry and carries no
/// per-instruction fuel code. When a block entry finds less fuel than the
/// block's ops, it hands that one block to the careful mode, which checks
/// each instruction's OpsInto against the fuel left at block entry. The
/// block's terminator necessarily crosses the limit, so control never
/// leaves the block: the careful loop ends the run with a fuel trap, or
/// with the behavioral trap that comes first.
template <bool Profiling, bool Careful>
void execute(const RunState &S, int64_t Residual, const PInst *p) {
  const Function &F = S.F;
  const PInst *const Code = S.BF.Code;
  const PBlockInfo *const PB = S.BF.Blocks;
  const uint32_t NumBlocks = S.BF.NumBlocks;
  MemoryImage &Mem = S.Mem;
  ProfileCollector *const Prof = S.Prof;
  RtValue *const Regs = S.Regs;
  uint64_t *const Entries = S.Entries;
  const uint64_t Clamp = S.Clamp;
  ExecResult &R = S.R;
  (void)Prof;
  // Fuel left when the careful mode's one block was entered.
  [[maybe_unused]] int64_t BlockFuel = 0;

  // Fold each fully executed block's static opcode histogram and weight,
  // scaled by its entry count, into R. With the DynOps formulas below this
  // reconstructs the exact per-instruction counters without any
  // bookkeeping on the fast path.
  auto addBlockCounts = [&]() {
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      uint64_t E = Entries[B];
      if (!E)
        continue;
      const PBlockInfo &Info = PB[B];
      const BasicBlock *OB = F.block(Info.OrigId);
      for (uint32_t I = Info.FirstNonPhi; I < Info.ExecLen; ++I)
        R.OpCounts[unsigned(OB->Insts[I].Op)] += E;
      R.WeightedCost += E * Info.Weight;
    }
  };

  // A trap inside a block cuts it short at its \p K-th counted op: take
  // back the pre-counted tail after the trapping instruction.
  auto trapAt = [&](TrapKind Kind, std::string Why, const PInst *Q,
                    uint32_t K) {
    const PBlockInfo &Info = PB[Q->Blk];
    const BasicBlock *OB = F.block(Info.OrigId);
    unsigned OrigIdx = Info.FirstNonPhi + K - 1;
    R.DynOps = (Clamp - uint64_t(Residual)) - Info.Ops + K;
    addBlockCounts();
    for (uint32_t I = OrigIdx + 1; I < Info.ExecLen; ++I) {
      Opcode Op = OB->Insts[I].Op;
      --R.OpCounts[unsigned(Op)];
      R.WeightedCost -= opcodeCost(Op);
    }
    R.Trapped = true;
    R.Kind = Kind;
    R.TrapBlock = OB->label();
    R.TrapInstIndex = OrigIdx;
    R.TrapReason =
        Why + strprintf(" (in @%s, block ^%s, inst %u)", F.name().c_str(),
                        OB->label().c_str(), OrigIdx);
  };

  // Careful mode only: \p Q holds the block's op BlockFuel + 1, the first
  // past the limit, which is counted and profiled but not run. Only the
  // second half of a fused pair can be that op; then the first half is
  // profiled as well, and its register write is skipped because nothing
  // reads registers after the trap.
  auto fuelTrap = [&](const PInst *Q) {
    uint32_t K = uint32_t(BlockFuel) + 1;
    if constexpr (Profiling) {
      const PBlockInfo &Info = PB[Q->Blk];
      const BasicBlock *OB = F.block(Info.OrigId);
      for (uint32_t J = Q->OpsInto - isFusedPair(Q->Op); J <= K; ++J) {
        const Instruction &I = OB->Insts[Info.FirstNonPhi + J - 1];
        Prof->countOp(Info.OrigId, opcodeCost(I.Op), classifyOp(I.Op, I.Ty));
      }
    }
    trapAt(TrapKind::FuelExhausted, "operation limit exceeded", Q, K);
  };

// One profiling tick for an original instruction, attributed to the
// predecoded instruction's owning block. Compiled out entirely in the
// non-profiling instantiations.
#define VM_PROF(OpC, TyC)                                                      \
  do {                                                                         \
    if constexpr (Profiling)                                                   \
      Prof->countOp(PB[p->Blk].OrigId, opcodeCost(OpC), classifyOp(OpC, TyC)); \
  } while (0)

// The careful mode's per-instruction fuel check, made before dispatching
// each instruction (edge code has OpsInto 0 and always passes). Compiled
// out entirely in the hot instantiations.
#define VM_FUEL_CHECK()                                                        \
  do {                                                                         \
    if constexpr (Careful)                                                     \
      if (int64_t(p->OpsInto) > BlockFuel)                                     \
        return fuelTrap(p);                                                    \
  } while (0)

#define VM_CASE(N) Lbl_##N:
#define VM_NEXT()                                                              \
  do {                                                                         \
    VM_FUEL_CHECK();                                                           \
    goto *JumpTable[unsigned(p->Op)];                                          \
  } while (0)
  static const void *const JumpTable[] = {
#define EPRE_POP_LABEL(N) &&Lbl_##N,
      EPRE_POP_LIST(EPRE_POP_LABEL)
#undef EPRE_POP_LABEL
  };
  VM_NEXT();

  VM_CASE(BlockEntry) {
    if constexpr (Careful) {
      BlockFuel = Residual;
    } else if (EPRE_UNLIKELY(Residual < p->Imm)) {
      // This block may cross the fuel limit: run it on the careful
      // instantiation, which pins the exact trap instruction.
      return execute<Profiling, true>(S, Residual, p);
    }
    if constexpr (Profiling)
      Prof->enterBlock(PB[p->A].OrigId);
    ++Entries[p->A];
    Residual -= p->Imm;
    ++p;
    VM_NEXT();
  }

  VM_CASE(Jump) {
    p = Code + p->Imm;
    VM_NEXT();
  }

  VM_CASE(PhiMove) {
    Regs[p->Dst] = Regs[p->A];
    ++p;
    VM_NEXT();
  }

  VM_CASE(TrapMissingPhi) {
    const PBlockInfo &SB = PB[p->A];
    if constexpr (Profiling)
      Prof->enterBlock(SB.OrigId); // the block is entered, then traps
    const BasicBlock *OB = F.block(SB.OrigId);
    R.DynOps = Clamp - uint64_t(Residual);
    addBlockCounts();
    R.Trapped = true;
    R.Kind = TrapKind::MissingPhiEntry;
    R.TrapBlock = OB->label();
    R.TrapInstIndex = unsigned(p->B);
    R.TrapReason = strprintf(
        "phi has no entry for predecessor (in @%s, block ^%s, inst %u)",
        F.name().c_str(), OB->label().c_str(), unsigned(p->B));
    return;
  }

  VM_CASE(TrapErased) {
    R.DynOps = Clamp - uint64_t(Residual);
    addBlockCounts();
    R.Trapped = true;
    R.Kind = TrapKind::ErasedBlock;
    R.TrapReason =
        strprintf("branch to erased block b%u", unsigned(p->Imm)) +
        strprintf(" (in @%s)", F.name().c_str());
    return;
  }

  VM_CASE(LoadImmI) {
    VM_PROF(Opcode::LoadI, Type::I64);
    Regs[p->Dst] = RtValue::ofI(p->Imm);
    ++p;
    VM_NEXT();
  }

  VM_CASE(LoadImmF) {
    VM_PROF(Opcode::LoadF, Type::F64);
    double V;
    std::memcpy(&V, &p->Imm, 8);
    Regs[p->Dst] = RtValue::ofF(V);
    ++p;
    VM_NEXT();
  }

  VM_CASE(CopyI) {
    VM_PROF(Opcode::Copy, p->Ty);
    Regs[p->Dst] = Regs[p->A];
    ++p;
    VM_NEXT();
  }

  VM_CASE(LoadMem) {
    VM_PROF(Opcode::Load, p->Ty);
    int64_t Addr = Regs[p->A].I;
    if (EPRE_UNLIKELY(!Mem.inBounds(Addr, 8)))
      return trapAt(TrapKind::MemoryOutOfBounds,
                    strprintf("load out of bounds at address %lld",
                              (long long)Addr),
                    p, p->OpsInto);
    Regs[p->Dst] = p->Ty == Type::F64 ? RtValue::ofF(Mem.loadF64(Addr))
                                      : RtValue::ofI(Mem.loadI64(Addr));
    ++p;
    VM_NEXT();
  }

  VM_CASE(StoreMem) {
    VM_PROF(Opcode::Store, p->Ty);
    int64_t Addr = Regs[p->A].I;
    if (EPRE_UNLIKELY(!Mem.inBounds(Addr, 8)))
      return trapAt(TrapKind::MemoryOutOfBounds,
                    strprintf("store out of bounds at address %lld",
                              (long long)Addr),
                    p, p->OpsInto);
    const RtValue &V = Regs[p->B];
    if (V.Ty == Type::F64)
      Mem.storeF64(Addr, V.F);
    else
      Mem.storeI64(Addr, V.I);
    ++p;
    VM_NEXT();
  }

  VM_CASE(AddI) {
    VM_PROF(Opcode::Add, Type::I64);
    Regs[p->Dst] = RtValue::ofI(
        int64_t(uint64_t(Regs[p->A].I) + uint64_t(Regs[p->B].I)));
    ++p;
    VM_NEXT();
  }

  VM_CASE(SubI) {
    VM_PROF(Opcode::Sub, Type::I64);
    Regs[p->Dst] = RtValue::ofI(
        int64_t(uint64_t(Regs[p->A].I) - uint64_t(Regs[p->B].I)));
    ++p;
    VM_NEXT();
  }

  VM_CASE(MulI) {
    VM_PROF(Opcode::Mul, Type::I64);
    Regs[p->Dst] = RtValue::ofI(
        int64_t(uint64_t(Regs[p->A].I) * uint64_t(Regs[p->B].I)));
    ++p;
    VM_NEXT();
  }

  VM_CASE(DivI) {
    VM_PROF(Opcode::Div, Type::I64);
    int64_t A = Regs[p->A].I, B = Regs[p->B].I;
    if (EPRE_UNLIKELY(B == 0 || (A == INT64_MIN && B == -1)))
      return trapAt(TrapKind::ArithmeticTrap,
                    std::string("arithmetic trap in ") +
                        opcodeName(Opcode::Div),
                    p, p->OpsInto);
    Regs[p->Dst] = RtValue::ofI(A / B);
    ++p;
    VM_NEXT();
  }

  VM_CASE(ModI) {
    VM_PROF(Opcode::Mod, Type::I64);
    int64_t A = Regs[p->A].I, B = Regs[p->B].I;
    if (EPRE_UNLIKELY(B == 0 || (A == INT64_MIN && B == -1)))
      return trapAt(TrapKind::ArithmeticTrap,
                    std::string("arithmetic trap in ") +
                        opcodeName(Opcode::Mod),
                    p, p->OpsInto);
    Regs[p->Dst] = RtValue::ofI(A % B);
    ++p;
    VM_NEXT();
  }

  VM_CASE(MinI) {
    VM_PROF(Opcode::Min, Type::I64);
    int64_t A = Regs[p->A].I, B = Regs[p->B].I;
    Regs[p->Dst] = RtValue::ofI(A < B ? A : B);
    ++p;
    VM_NEXT();
  }

  VM_CASE(MaxI) {
    VM_PROF(Opcode::Max, Type::I64);
    int64_t A = Regs[p->A].I, B = Regs[p->B].I;
    Regs[p->Dst] = RtValue::ofI(A > B ? A : B);
    ++p;
    VM_NEXT();
  }

  VM_CASE(NegI) {
    VM_PROF(Opcode::Neg, Type::I64);
    Regs[p->Dst] = RtValue::ofI(int64_t(0 - uint64_t(Regs[p->A].I)));
    ++p;
    VM_NEXT();
  }

  VM_CASE(AndI) {
    VM_PROF(Opcode::And, Type::I64);
    Regs[p->Dst] = RtValue::ofI(Regs[p->A].I & Regs[p->B].I);
    ++p;
    VM_NEXT();
  }

  VM_CASE(OrI) {
    VM_PROF(Opcode::Or, Type::I64);
    Regs[p->Dst] = RtValue::ofI(Regs[p->A].I | Regs[p->B].I);
    ++p;
    VM_NEXT();
  }

  VM_CASE(XorI) {
    VM_PROF(Opcode::Xor, Type::I64);
    Regs[p->Dst] = RtValue::ofI(Regs[p->A].I ^ Regs[p->B].I);
    ++p;
    VM_NEXT();
  }

  VM_CASE(NotI) {
    VM_PROF(Opcode::Not, Type::I64);
    Regs[p->Dst] = RtValue::ofI(~Regs[p->A].I);
    ++p;
    VM_NEXT();
  }

  VM_CASE(ShlI) {
    VM_PROF(Opcode::Shl, Type::I64);
    Regs[p->Dst] = RtValue::ofI(
        int64_t(uint64_t(Regs[p->A].I) << (uint64_t(Regs[p->B].I) & 63)));
    ++p;
    VM_NEXT();
  }

  VM_CASE(ShrI) {
    VM_PROF(Opcode::Shr, Type::I64);
    Regs[p->Dst] =
        RtValue::ofI(Regs[p->A].I >> (uint64_t(Regs[p->B].I) & 63));
    ++p;
    VM_NEXT();
  }

  VM_CASE(AddF) {
    VM_PROF(Opcode::Add, Type::F64);
    Regs[p->Dst] = RtValue::ofF(Regs[p->A].F + Regs[p->B].F);
    ++p;
    VM_NEXT();
  }

  VM_CASE(SubF) {
    VM_PROF(Opcode::Sub, Type::F64);
    Regs[p->Dst] = RtValue::ofF(Regs[p->A].F - Regs[p->B].F);
    ++p;
    VM_NEXT();
  }

  VM_CASE(MulF) {
    VM_PROF(Opcode::Mul, Type::F64);
    Regs[p->Dst] = RtValue::ofF(Regs[p->A].F * Regs[p->B].F);
    ++p;
    VM_NEXT();
  }

  VM_CASE(DivF) {
    VM_PROF(Opcode::Div, Type::F64);
    Regs[p->Dst] = RtValue::ofF(Regs[p->A].F / Regs[p->B].F);
    ++p;
    VM_NEXT();
  }

  VM_CASE(MinF) {
    VM_PROF(Opcode::Min, Type::F64);
    Regs[p->Dst] = RtValue::ofF(evalFMin(Regs[p->A].F, Regs[p->B].F));
    ++p;
    VM_NEXT();
  }

  VM_CASE(MaxF) {
    VM_PROF(Opcode::Max, Type::F64);
    Regs[p->Dst] = RtValue::ofF(evalFMax(Regs[p->A].F, Regs[p->B].F));
    ++p;
    VM_NEXT();
  }

  VM_CASE(NegF) {
    VM_PROF(Opcode::Neg, Type::F64);
    Regs[p->Dst] = RtValue::ofF(-Regs[p->A].F);
    ++p;
    VM_NEXT();
  }

  VM_CASE(CmpI) {
    VM_PROF(Opcode(p->Sub), Type::I64);
    Regs[p->Dst] = RtValue::ofI(
        cmpI(Opcode(p->Sub), Regs[p->A].I, Regs[p->B].I) ? 1 : 0);
    ++p;
    VM_NEXT();
  }

  VM_CASE(CmpF) {
    VM_PROF(Opcode(p->Sub), Type::F64);
    Regs[p->Dst] = RtValue::ofI(
        cmpF(Opcode(p->Sub), Regs[p->A].F, Regs[p->B].F) ? 1 : 0);
    ++p;
    VM_NEXT();
  }

  VM_CASE(I2FOp) {
    VM_PROF(Opcode::I2F, p->Ty);
    Regs[p->Dst] = RtValue::ofF(double(Regs[p->A].I));
    ++p;
    VM_NEXT();
  }

  VM_CASE(F2IOp) {
    VM_PROF(Opcode::F2I, p->Ty);
    double V = Regs[p->A].F;
    if (EPRE_UNLIKELY(
            !(V >= -9.2233720368547758e18 && V <= 9.2233720368547758e18)))
      return trapAt(TrapKind::ArithmeticTrap,
                    std::string("arithmetic trap in ") +
                        opcodeName(Opcode::F2I),
                    p, p->OpsInto);
    Regs[p->Dst] = RtValue::ofI(int64_t(V));
    ++p;
    VM_NEXT();
  }

  VM_CASE(CallOp) {
    VM_PROF(Opcode::Call, p->Ty);
    RtValue CallArgs[2] = {Regs[p->A],
                           p->Flags > 1 ? Regs[p->B] : RtValue{}};
    RtValue Out;
    if (EPRE_UNLIKELY(!evalIntrinsic(Intrinsic(p->Sub), p->Ty, CallArgs,
                                     p->Flags, Out)))
      return trapAt(TrapKind::ArithmeticTrap,
                    std::string("arithmetic trap in ") +
                        opcodeName(Opcode::Call),
                    p, p->OpsInto);
    Regs[p->Dst] = Out;
    ++p;
    VM_NEXT();
  }

  VM_CASE(Br) {
    VM_PROF(Opcode::Br, p->Ty);
    if constexpr (Profiling)
      Prof->takeEdge(PB[p->Blk].OrigId, p->X);
    p = Code + p->Imm;
    VM_NEXT();
  }

  VM_CASE(CbrOp) {
    VM_PROF(Opcode::Cbr, p->Ty);
    bool Taken = Regs[p->A].I != 0;
    if constexpr (Profiling)
      Prof->takeEdge(PB[p->Blk].OrigId, Taken ? p->X : p->Y);
    p = Code + (Taken ? p->Imm : p->Imm2);
    VM_NEXT();
  }

  VM_CASE(RetOp) {
    VM_PROF(Opcode::Ret, p->Ty);
    R.DynOps = Clamp - uint64_t(Residual);
    addBlockCounts();
    if (p->Flags & 1) {
      R.HasReturn = true;
      R.ReturnValue = Regs[p->A];
    }
    return;
  }

  VM_CASE(FuseAddLoad) {
    VM_PROF(Opcode::Add, Type::I64);
    uint64_t Sum = uint64_t(Regs[p->A].I) + uint64_t(Regs[p->B].I);
    Regs[p->Dst] = RtValue::ofI(int64_t(Sum));
    VM_PROF(Opcode::Load, p->Ty);
    int64_t Addr = int64_t(Sum);
    if (EPRE_UNLIKELY(!Mem.inBounds(Addr, 8)))
      return trapAt(TrapKind::MemoryOutOfBounds,
                    strprintf("load out of bounds at address %lld",
                              (long long)Addr),
                    p, p->OpsInto);
    Regs[p->Dst2] = p->Ty == Type::F64 ? RtValue::ofF(Mem.loadF64(Addr))
                                       : RtValue::ofI(Mem.loadI64(Addr));
    ++p;
    VM_NEXT();
  }

  VM_CASE(FuseMulAddI) {
    VM_PROF(Opcode::Mul, Type::I64);
    uint64_t Prod = uint64_t(Regs[p->A].I) * uint64_t(Regs[p->B].I);
    Regs[p->Dst] = RtValue::ofI(int64_t(Prod));
    VM_PROF(Opcode::Add, Type::I64);
    Regs[p->Dst2] = RtValue::ofI(int64_t(Prod + uint64_t(Regs[p->X].I)));
    ++p;
    VM_NEXT();
  }

  VM_CASE(FuseMulAddF) {
    VM_PROF(Opcode::Mul, Type::F64);
    double Prod = Regs[p->A].F * Regs[p->B].F;
    Regs[p->Dst] = RtValue::ofF(Prod);
    VM_PROF(Opcode::Add, Type::F64);
    double Other = Regs[p->X].F;
    Regs[p->Dst2] =
        RtValue::ofF(p->Flags & 1 ? Other + Prod : Prod + Other);
    ++p;
    VM_NEXT();
  }

  VM_CASE(FuseCmpCbrI) {
    VM_PROF(Opcode(p->Sub), Type::I64);
    bool C = cmpI(Opcode(p->Sub), Regs[p->A].I, Regs[p->B].I);
    Regs[p->Dst] = RtValue::ofI(C ? 1 : 0);
    VM_PROF(Opcode::Cbr, Type::I64);
    if constexpr (Profiling)
      Prof->takeEdge(PB[p->Blk].OrigId, C ? p->X : p->Y);
    p = Code + (C ? p->Imm : p->Imm2);
    VM_NEXT();
  }

  VM_CASE(FuseCmpCbrF) {
    VM_PROF(Opcode(p->Sub), Type::F64);
    bool C = cmpF(Opcode(p->Sub), Regs[p->A].F, Regs[p->B].F);
    Regs[p->Dst] = RtValue::ofI(C ? 1 : 0);
    VM_PROF(Opcode::Cbr, Type::I64);
    if constexpr (Profiling)
      Prof->takeEdge(PB[p->Blk].OrigId, C ? p->X : p->Y);
    p = Code + (C ? p->Imm : p->Imm2);
    VM_NEXT();
  }

#undef VM_CASE
#undef VM_NEXT
#undef VM_FUEL_CHECK
#undef VM_PROF
}

template <bool Profiling>
ExecResult runImpl(const BytecodeFunction &BF, const std::vector<RtValue> &Args,
                   MemoryImage &Mem, const ExecLimits &Limits,
                   ProfileCollector *Prof, Arena &Scratch) {
  const Function &F = *BF.Src;

  ExecResult R;
  R.OpCounts.assign(unsigned(Opcode::Phi) + 1, 0);
  R.TrapFunction = F.name();

  auto trapArg = [&](std::string Why) {
    R.Trapped = true;
    R.Kind = TrapKind::ArgumentMismatch;
    R.TrapReason = Why + strprintf(" (in @%s)", F.name().c_str());
    return R;
  };
  if (Args.size() != F.params().size())
    return trapArg("argument count mismatch");

  Scratch.reset();
  RtValue *Regs = Scratch.allocArray<RtValue>(BF.RegFileSize);
  Regs[0] = RtValue{};
  for (Reg RG = 1; RG < F.numRegs(); ++RG) {
    Regs[RG] = RtValue{};
    Regs[RG].Ty = F.regType(RG);
  }
  for (uint32_t RG = F.numRegs(); RG < BF.RegFileSize; ++RG)
    Regs[RG] = RtValue{};
  for (unsigned I = 0; I < Args.size(); ++I) {
    if (Args[I].Ty != F.regType(F.params()[I]))
      return trapArg("argument type mismatch");
    Regs[F.params()[I]] = Args[I];
  }

  uint64_t *Entries = Scratch.allocArray<uint64_t>(BF.NumBlocks);
  for (uint32_t B = 0; B < BF.NumBlocks; ++B)
    Entries[B] = 0;

  if constexpr (Profiling)
    Prof->reset(F);

  const uint64_t Clamp = std::min(Limits.MaxOps, detail::FuelSaturation);
  RunState S{F, BF, Mem, Prof, Regs, Entries, Clamp, R};
  execute<Profiling, false>(S, int64_t(Clamp), BF.Code + BF.StartPC);
  return R;
}

} // namespace

ExecResult epre::executeBytecode(const BytecodeFunction &BF,
                                 const std::vector<RtValue> &Args,
                                 MemoryImage &Mem, const ExecLimits &Limits,
                                 ProfileCollector *Prof, Arena &Scratch) {
  assert(BF.valid() && "executing an invalid BytecodeFunction");
  assert(BF.SrcVersion == BF.Src->version() &&
         "function changed since predecode");
  if (Prof)
    return runImpl<true>(BF, Args, Mem, Limits, Prof, Scratch);
  return runImpl<false>(BF, Args, Mem, Limits, nullptr, Scratch);
}
