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

#include <cassert>
#include <map>
#include <optional>

using namespace epre;

namespace {

class Peephole {
public:
  explicit Peephole(Function &F) : F(F) {}

  bool run() {
    DT = DominatorTree::compute(F, CFG::compute(F));
    collectUniqueDefs();
    bool Changed = false;
    F.forEachBlock([&](BasicBlock &B) { Changed |= runOnBlock(B); });
    return Changed;
  }

private:
  /// Caches a copy of the unique defining instruction of single-definition,
  /// non-parameter registers, for cross-block operand inspection.
  void collectUniqueDefs() {
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst())
          ++AllDefs[I.Dst];
    });
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst() && AllDefs[I.Dst] == 1 && !F.isParam(I.Dst))
          UniqueDef[I.Dst] = {I, B.id()};
    });
  }

  /// Returns the instruction defining \p R visible at the current point:
  /// the latest local definition, or a unique definition in a strictly
  /// dominating block. Returns nullptr when unknown.
  const Instruction *defOf(Reg R) {
    auto Local = LocalDef.find(R);
    if (Local != LocalDef.end())
      return &CurOut[Local->second];
    auto It = UniqueDef.find(R);
    if (It == UniqueDef.end())
      return nullptr;
    if (!DT.strictlyDominates(It->second.second, CurBlock))
      return nullptr;
    return &It->second.first;
  }

  /// True if \p Src still holds, at the current point, the value it held
  /// when \p D executed — the precondition for forwarding \p Src out of
  /// \p D's operand list into a rewritten instruction. In non-SSA code this
  /// requires proving the absence of intervening redefinitions.
  bool canForwardOperand(const Instruction *D, Reg Src) {
    if (F.isParam(Src) && !AllDefs.count(Src))
      return true; // parameters without redefinition never change
    bool DIsLocal =
        D >= CurOut.data() && D < CurOut.data() + CurOut.size();
    if (DIsLocal) {
      size_t DIdx = size_t(D - CurOut.data());
      auto It = LocalDef.find(Src);
      return It == LocalDef.end() || It->second < DIdx;
    }
    // Cross-block: safe only when Src has a single definition anywhere
    // (its value can never change after that definition runs).
    auto It = AllDefs.find(Src);
    return It != AllDefs.end() && It->second == 1 && !F.isParam(Src);
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
  /// a cross-block multiplier gets the load inserted right after its
  /// unique definition, which strictly dominates every rewritten use, and
  /// the register is cached so further rewrites of the same multiplier
  /// reuse it.
  Reg materializeShiftAmount(Reg MulConst, int Shift,
                             std::vector<Instruction> &Out) {
    if (LocalDef.count(MulConst)) {
      Reg ShiftReg = F.makeReg(Type::I64);
      Out.push_back(Instruction::makeLoadI(ShiftReg, Shift));
      return ShiftReg;
    }
    auto Cached = HoistedShift.find(MulConst);
    if (Cached != HoistedShift.end())
      return Cached->second;
    auto It = UniqueDef.find(MulConst); // present: defOf already resolved it
    BasicBlock *DefB = F.block(It->second.second);
    Reg ShiftReg = F.makeReg(Type::I64);
    for (size_t P = 0; P < DefB->Insts.size(); ++P)
      if (DefB->Insts[P].hasDst() && DefB->Insts[P].Dst == MulConst) {
        DefB->Insts.insert(DefB->Insts.begin() + P + 1,
                           Instruction::makeLoadI(ShiftReg, Shift));
        break;
      }
    HoistedShift.emplace(MulConst, ShiftReg);
    return ShiftReg;
  }

  bool runOnBlock(BasicBlock &B) {
    CurBlock = B.id();
    bool Changed = false;
    // Iterate to a local fixpoint; rules cascade (e.g. neg-of-neg exposes
    // an add identity).
    bool RoundChanged = true;
    while (RoundChanged) {
      RoundChanged = false;
      LocalDef.clear();
      CurOut.clear();
      for (Instruction &I : B.Insts) {
        Instruction New = I;
        if (simplify(New, CurOut))
          RoundChanged = true;
        CurOut.push_back(std::move(New));
        if (CurOut.back().hasDst())
          LocalDef[CurOut.back().Dst] = CurOut.size() - 1;
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
      std::vector<RtValue> Ops;
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
  std::map<Reg, std::pair<Instruction, BlockId>> UniqueDef;
  std::map<Reg, unsigned> AllDefs;
  std::map<Reg, size_t> LocalDef;
  std::vector<Instruction> CurOut;
  /// Shift-amount registers already materialized next to a cross-block
  /// multiplier constant, keyed by the multiplier register.
  std::map<Reg, Reg> HoistedShift;
};

} // namespace

void epre::PeepholePass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  bool Changed = Peephole(F).run();
  Ctx.addStat("changed", Changed);
  if (Changed)
    F.bumpVersion();
}

