//===- opt/Peephole.cpp ---------------------------------------------------===//
///
/// Rules are restricted to bit-exact rewrites (IEEE-754 semantics for F64),
/// because the baseline pipeline must preserve observable behaviour exactly;
/// value-changing reassociation is the reassociation pass's business.
///
//===----------------------------------------------------------------------===//

#include "opt/Peephole.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "ir/Eval.h"

#include <algorithm>
#include <optional>

using namespace epre;

namespace {

/// The opcodes some rule matches a defining instruction against; defOf()
/// finds no other definition.
bool isInspectedDef(Opcode Op) {
  return Op == Opcode::LoadI || Op == Opcode::LoadF || Op == Opcode::Neg ||
         Op == Opcode::Not || isComparison(Op);
}

class Peephole {
public:
  explicit Peephole(Function &F) : F(F) {}

  bool run() {
    DT = DominatorTree::compute(F, CFG::compute(F));
    collectUniqueDefs();
    HoistedShift.assign(F.numRegs(), NoReg);
    bool Changed = false;
    F.forEachBlock([&](BasicBlock &B) { Changed |= runOnBlock(B); });
    placeHoistedShifts();
    return Changed;
  }

  /// Instructions visited: the two definition sweeps, every instruction of
  /// every round, and the blocks that receive hoisted shift amounts.
  uint64_t work() const { return Work; }

private:
  static constexpr uint32_t NoDef = ~0u;

  struct SnapshotDef {
    Instruction I;
    BlockId Block;
  };

  /// Counts every register's definitions, and snapshots the unique
  /// definition of single-definition, non-parameter registers for
  /// cross-block operand inspection. Rewrites never touch the snapshot: a
  /// cross-block definition is seen as it was when the pass started.
  void collectUniqueDefs() {
    AllDefs.assign(F.numRegs(), 0);
    UniqueDef.assign(F.numRegs(), NoDef);
    F.forEachBlock([&](const BasicBlock &B) {
      Work += B.Insts.size();
      for (const Instruction &I : B.Insts)
        if (I.hasDst())
          ++AllDefs[I.Dst];
    });
    F.forEachBlock([&](const BasicBlock &B) {
      Work += B.Insts.size();
      for (const Instruction &I : B.Insts)
        if (I.hasDst() && AllDefs[I.Dst] == 1 && isInspectedDef(I.Op) &&
            !F.isParam(I.Dst)) {
          UniqueDef[I.Dst] = uint32_t(Snapshot.size());
          Snapshot.push_back({I, B.id()});
        }
    });
  }

  /// Definitions of \p R when the pass started; 0 for registers it made.
  unsigned defCount(Reg R) const { return R < AllDefs.size() ? AllDefs[R] : 0; }

  /// The snapshot of \p R's unique definition, or nullptr.
  const SnapshotDef *uniqueDef(Reg R) const {
    if (R >= UniqueDef.size() || UniqueDef[R] == NoDef)
      return nullptr;
    return &Snapshot[UniqueDef[R]];
  }

  /// Index in CurOut of \p R's latest definition in this round, or NoDef.
  uint32_t localDef(Reg R) const {
    if (R < LocalStamp.size() && LocalStamp[R] == Round)
      return LocalDef[R];
    return NoDef;
  }

  /// Returns the instruction defining \p R visible at the current point:
  /// the latest local definition, or a unique definition in a strictly
  /// dominating block. Returns nullptr when unknown.
  const Instruction *defOf(Reg R) {
    if (uint32_t Local = localDef(R); Local != NoDef)
      return &CurOut[Local];
    const SnapshotDef *D = uniqueDef(R);
    if (!D || !DT.strictlyDominates(D->Block, CurBlock))
      return nullptr;
    return &D->I;
  }

  /// True if \p Src still holds, at the current point, the value it held
  /// when \p D executed — the precondition for forwarding \p Src out of
  /// \p D's operand list into a rewritten instruction. In non-SSA code this
  /// requires proving the absence of intervening redefinitions.
  bool canForwardOperand(const Instruction *D, Reg Src) {
    if (F.isParam(Src) && defCount(Src) == 0)
      return true; // parameters without redefinition never change
    bool DIsLocal =
        D >= CurOut.data() && D < CurOut.data() + CurOut.size();
    if (DIsLocal) {
      uint32_t Local = localDef(Src);
      return Local == NoDef || Local < uint32_t(D - CurOut.data());
    }
    // Cross-block: safe only when Src has a single definition anywhere
    // (its value can never change after that definition runs).
    return defCount(Src) == 1 && !F.isParam(Src);
  }

  std::optional<int64_t> constI(Reg R) {
    const Instruction *D = defOf(R);
    if (D && D->Op == Opcode::LoadI)
      return D->IImm;
    return std::nullopt;
  }

  std::optional<double> constF(Reg R) {
    const Instruction *D = defOf(R);
    if (D && D->Op == Opcode::LoadF)
      return D->FImm;
    return std::nullopt;
  }

  /// Is the register a constant immediate of either type?
  std::optional<RtValue> constVal(Reg R) {
    if (auto I = constI(R))
      return RtValue::ofI(*I);
    if (auto Fv = constF(R))
      return RtValue::ofF(*Fv);
    return std::nullopt;
  }

  /// Materializes the shift-amount constant for a mul-by-power-of-two
  /// rewrite, placing it next to the *multiplier's* definition rather than
  /// next to the use: when the multiplier constant was hoisted out of a
  /// loop (e.g. by PRE), the shift amount must not re-grow the loop body
  /// by a per-iteration constant load. A multiplier defined in the current
  /// block keeps the old behaviour (the load lands just before the shl);
  /// a cross-block multiplier gets one register per multiplier, whose load
  /// placeHoistedShifts() puts right after the multiplier's unique
  /// definition, which strictly dominates every rewritten use.
  Reg materializeShiftAmount(Reg MulConst, int Shift,
                             std::vector<Instruction> &Out) {
    if (localDef(MulConst) != NoDef) {
      Reg ShiftReg = F.makeReg(Type::I64);
      Out.push_back(Instruction::makeLoadI(ShiftReg, Shift));
      return ShiftReg;
    }
    Reg &ShiftReg = HoistedShift[MulConst];
    if (ShiftReg == NoReg) {
      ShiftReg = F.makeReg(Type::I64);
      HoistBlocks.push_back(uniqueDef(MulConst)->Block);
    }
    return ShiftReg;
  }

  /// Inserts each hoisted shift amount, `loadi log2(C)`, right after the
  /// `loadi C` of its multiplier: one sweep per block that received any.
  void placeHoistedShifts() {
    std::sort(HoistBlocks.begin(), HoistBlocks.end());
    HoistBlocks.erase(std::unique(HoistBlocks.begin(), HoistBlocks.end()),
                      HoistBlocks.end());
    for (BlockId Id : HoistBlocks) {
      std::vector<Instruction> &Insts = F.block(Id)->Insts;
      Work += Insts.size();
      std::vector<Instruction> Out;
      Out.reserve(Insts.size() + 1);
      for (Instruction &I : Insts) {
        Out.push_back(std::move(I));
        Reg D = Out.back().Dst;
        if (D == NoReg || D >= HoistedShift.size() || HoistedShift[D] == NoReg)
          continue;
        int Shift = __builtin_ctzll(uint64_t(Out.back().IImm));
        Out.push_back(Instruction::makeLoadI(HoistedShift[D], Shift));
      }
      Insts = std::move(Out);
    }
  }

  bool runOnBlock(BasicBlock &B) {
    CurBlock = B.id();
    bool Changed = false;
    // Iterate to a local fixpoint; rules cascade (e.g. neg-of-neg exposes
    // an add identity).
    bool RoundChanged = true;
    while (RoundChanged) {
      RoundChanged = false;
      // A new round forgets the last one's local definitions; registers
      // made since then (shift amounts) get slots.
      ++Round;
      LocalDef.resize(F.numRegs());
      LocalStamp.resize(F.numRegs(), 0);
      Work += B.Insts.size();
      CurOut.clear();
      CurOut.reserve(B.Insts.size());
      for (Instruction &I : B.Insts) {
        Instruction New = std::move(I);
        if (simplify(New, CurOut))
          RoundChanged = true;
        CurOut.push_back(std::move(New));
        if (Reg D = CurOut.back().Dst; D != NoReg) {
          LocalDef[D] = uint32_t(CurOut.size() - 1);
          LocalStamp[D] = Round;
        }
      }
      B.Insts = std::move(CurOut);
      Changed |= RoundChanged;
    }
    return Changed;
  }

  /// Attempts to simplify \p I in place; may append materialized constants
  /// to \p Out first. Returns true on change.
  bool simplify(Instruction &I, std::vector<Instruction> &Out) {
    if (!I.hasDst() || I.isPhi() || I.Op == Opcode::Load)
      return false;
    if (I.Op == Opcode::LoadI || I.Op == Opcode::LoadF)
      return false;

    // Full constant folding first.
    if (I.isExpression() || I.isCopy()) {
      Ops.clear();
      bool AllConst = true;
      for (Reg R : I.Operands) {
        auto C = constVal(R);
        if (!C) {
          AllConst = false;
          break;
        }
        Ops.push_back(*C);
      }
      RtValue V;
      if (AllConst && evalPure(I, Ops, V)) {
        I = V.isI() ? Instruction::makeLoadI(I.Dst, V.I)
                    : Instruction::makeLoadF(I.Dst, V.F);
        return true;
      }
    }

    Type Ty = I.Ty;
    bool IsInt = Ty == Type::I64;
    auto toCopy = [&](Reg Src) {
      I = Instruction::makeCopy(F.regType(Src), I.Dst, Src);
      return true;
    };
    auto toConstI = [&](int64_t C) {
      I = Instruction::makeLoadI(I.Dst, C);
      return true;
    };

    switch (I.Op) {
    case Opcode::Add: {
      // x + (-y) --> x - y (bit exact for F64 too).
      for (unsigned Side = 0; Side < 2; ++Side) {
        const Instruction *D = defOf(I.Operands[Side]);
        if (D && D->Op == Opcode::Neg &&
            canForwardOperand(D, D->Operands[0])) {
          I = Instruction::makeBinary(Opcode::Sub, Ty, I.Dst,
                                      I.Operands[1 - Side], D->Operands[0]);
          return true;
        }
      }
      if (IsInt) {
        if (auto C = constI(I.Operands[1]); C && *C == 0)
          return toCopy(I.Operands[0]);
        if (auto C = constI(I.Operands[0]); C && *C == 0)
          return toCopy(I.Operands[1]);
      }
      break;
    }
    case Opcode::Sub: {
      // x - (-y) --> x + y.
      if (const Instruction *D = defOf(I.Operands[1]);
          D && D->Op == Opcode::Neg &&
          canForwardOperand(D, D->Operands[0])) {
        I = Instruction::makeBinary(Opcode::Add, Ty, I.Dst, I.Operands[0],
                                    D->Operands[0]);
        return true;
      }
      if (IsInt && I.Operands[0] == I.Operands[1])
        return toConstI(0);
      if (auto C = constI(I.Operands[1]); IsInt && C && *C == 0)
        return toCopy(I.Operands[0]);
      if (auto C = constF(I.Operands[1]); !IsInt && C && *C == 0.0)
        return toCopy(I.Operands[0]); // x - (+0.0) == x bit-exactly
      if (auto C = constI(I.Operands[0]); IsInt && C && *C == 0) {
        I = Instruction::makeUnary(Opcode::Neg, Ty, I.Dst, I.Operands[1]);
        return true;
      }
      break;
    }
    case Opcode::Mul: {
      for (unsigned Side = 0; Side < 2; ++Side) {
        if (IsInt) {
          auto C = constI(I.Operands[Side]);
          if (!C)
            continue;
          if (*C == 1)
            return toCopy(I.Operands[1 - Side]);
          if (*C == 0)
            return toConstI(0);
          if (*C == -1) {
            I = Instruction::makeUnary(Opcode::Neg, Ty, I.Dst,
                                       I.Operands[1 - Side]);
            return true;
          }
          // Multiplies by powers of two become shifts. Per §5.2 of the
          // paper this must happen only *after* global reassociation
          // (shifts are not associative), which is where the pipeline
          // places this pass.
          if (*C > 1 && (*C & (*C - 1)) == 0) {
            int Shift = __builtin_ctzll(uint64_t(*C));
            Reg ShiftReg = materializeShiftAmount(I.Operands[Side], Shift, Out);
            I = Instruction::makeBinary(Opcode::Shl, Ty, I.Dst,
                                        I.Operands[1 - Side], ShiftReg);
            return true;
          }
        } else {
          auto C = constF(I.Operands[Side]);
          if (C && *C == 1.0)
            return toCopy(I.Operands[1 - Side]); // exact in IEEE
        }
      }
      break;
    }
    case Opcode::Div: {
      if (IsInt) {
        if (auto C = constI(I.Operands[1]); C && *C == 1)
          return toCopy(I.Operands[0]);
      } else if (auto C = constF(I.Operands[1]); C && *C == 1.0) {
        return toCopy(I.Operands[0]); // exact in IEEE
      }
      break;
    }
    case Opcode::Neg:
    case Opcode::Not: {
      const Instruction *D = defOf(I.Operands[0]);
      if (D && D->Op == I.Op && canForwardOperand(D, D->Operands[0]))
        return toCopy(D->Operands[0]);
      break;
    }
    case Opcode::And:
    case Opcode::Or: {
      if (I.Operands[0] == I.Operands[1])
        return toCopy(I.Operands[0]);
      for (unsigned Side = 0; Side < 2; ++Side) {
        auto C = constI(I.Operands[Side]);
        if (!C)
          continue;
        if (I.Op == Opcode::And && *C == 0)
          return toConstI(0);
        if (I.Op == Opcode::And && *C == -1)
          return toCopy(I.Operands[1 - Side]);
        if (I.Op == Opcode::Or && *C == 0)
          return toCopy(I.Operands[1 - Side]);
        if (I.Op == Opcode::Or && *C == -1)
          return toConstI(-1);
      }
      break;
    }
    case Opcode::Xor: {
      if (I.Operands[0] == I.Operands[1])
        return toConstI(0);
      for (unsigned Side = 0; Side < 2; ++Side)
        if (auto C = constI(I.Operands[Side]); C && *C == 0)
          return toCopy(I.Operands[1 - Side]);
      // Logical-not of a comparison (xor c, 1 with c in {0,1}) inverts the
      // comparison (Frailey's complement normalization). Integer compares
      // only: !(a < b) != (a >= b) under IEEE NaN.
      for (unsigned Side = 0; Side < 2; ++Side) {
        auto C = constI(I.Operands[Side]);
        if (!C || *C != 1)
          continue;
        const Instruction *D = defOf(I.Operands[1 - Side]);
        if (!D || !isComparison(D->Op) || D->Ty != Type::I64)
          continue;
        if (!canForwardOperand(D, D->Operands[0]) ||
            !canForwardOperand(D, D->Operands[1]))
          continue;
        Opcode Inv;
        switch (D->Op) {
        case Opcode::CmpEq: Inv = Opcode::CmpNe; break;
        case Opcode::CmpNe: Inv = Opcode::CmpEq; break;
        case Opcode::CmpLt: Inv = Opcode::CmpGe; break;
        case Opcode::CmpGe: Inv = Opcode::CmpLt; break;
        case Opcode::CmpGt: Inv = Opcode::CmpLe; break;
        default:            Inv = Opcode::CmpGt; break; // CmpLe
        }
        I = Instruction::makeBinary(Inv, D->Ty, I.Dst, D->Operands[0],
                                    D->Operands[1]);
        return true;
      }
      break;
    }
    case Opcode::Shl:
    case Opcode::Shr:
      if (auto C = constI(I.Operands[1]); C && (*C & 63) == 0)
        return toCopy(I.Operands[0]);
      break;
    case Opcode::Mod:
      if (auto C = constI(I.Operands[1]); C && (*C == 1 || *C == -1))
        return toConstI(0);
      break;
    case Opcode::Min:
    case Opcode::Max:
      if (I.Operands[0] == I.Operands[1])
        return toCopy(I.Operands[0]);
      break;
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      // Identical operands fold for integers only (F64 NaN compares false).
      if (IsInt && I.Operands[0] == I.Operands[1])
        return toConstI(I.Op == Opcode::CmpEq || I.Op == Opcode::CmpLe ||
                                I.Op == Opcode::CmpGe
                            ? 1
                            : 0);
      break;
    default:
      break;
    }
    return false;
  }

  Function &F;
  DominatorTree DT;
  BlockId CurBlock = 0;
  uint64_t Work = 0;
  /// Indexed by Reg, for the registers that existed when the pass started.
  std::vector<unsigned> AllDefs;
  std::vector<uint32_t> UniqueDef; // index into Snapshot, or NoDef
  std::vector<SnapshotDef> Snapshot;
  /// Shift-amount register hoisted next to a cross-block multiplier
  /// constant, keyed by the multiplier register; NoReg if none.
  std::vector<Reg> HoistedShift;
  std::vector<BlockId> HoistBlocks;
  /// Indexed by Reg and grown each round: LocalDef[R] is valid when
  /// LocalStamp[R] == Round.
  std::vector<uint32_t> LocalDef;
  std::vector<uint32_t> LocalStamp;
  uint32_t Round = 0;
  std::vector<Instruction> CurOut;
  std::vector<RtValue> Ops; // operand values for constant folding
};

} // namespace

void epre::PeepholePass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  Peephole P(F);
  bool Changed = P.run();
  LastWork = P.work();
  Ctx.addStat("changed", Changed);
  if (Changed)
    F.bumpVersion();
}
