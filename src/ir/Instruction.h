//===- ir/Instruction.h - Three-address instruction -------------*- C++ -*-===//
///
/// \file
/// A single ILOC-like instruction: opcode, result type, destination register,
/// source registers, and (for branches/phis) block references.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_IR_INSTRUCTION_H
#define EPRE_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "support/SmallVector.h"

#include <cassert>
#include <cstdint>

namespace epre {

/// A virtual register name. Register 0 is reserved as "no register".
using Reg = uint32_t;
inline constexpr Reg NoReg = 0;

/// A basic block identifier: the block's index in its Function.
using BlockId = uint32_t;
inline constexpr BlockId InvalidBlock = ~BlockId(0);

/// One three-address operation.
///
/// Instructions are plain values stored inline in their block's vector;
/// passes that restructure code build new instruction vectors rather than
/// splicing nodes. Branch targets live in \ref Succs; a Phi additionally
/// records, in \ref PhiBlocks, the predecessor block that each operand
/// arrives from (index-aligned with \ref Operands).
struct Instruction {
  Opcode Op = Opcode::Copy;
  /// The type of the produced value (or stored value for Store; operand type
  /// for comparisons, whose results are always I64).
  Type Ty = Type::I64;
  Reg Dst = NoReg;
  SmallVector<Reg, 2> Operands;
  /// Immediate payloads for LoadI / LoadF.
  int64_t IImm = 0;
  double FImm = 0.0;
  /// Callee for Opcode::Call.
  Intrinsic Intr = Intrinsic::Sqrt;
  /// Successor blocks: Br has one; Cbr has two (taken, not-taken).
  SmallVector<BlockId, 2> Succs;
  /// For Phi: the incoming predecessor of each operand.
  SmallVector<BlockId, 2> PhiBlocks;

  bool isTerminator() const { return epre::isTerminator(Op); }
  bool hasSideEffects() const { return epre::hasSideEffects(Op); }
  bool isExpression() const { return epre::isExpression(Op); }
  bool isPhi() const { return Op == Opcode::Phi; }
  bool isCopy() const { return Op == Opcode::Copy; }

  /// True if the instruction defines a register.
  bool hasDst() const { return Dst != NoReg; }

  Reg operand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }

  // --- Factory helpers -----------------------------------------------------

  static Instruction makeLoadI(Reg Dst, int64_t Value) {
    Instruction I;
    I.Op = Opcode::LoadI;
    I.Ty = Type::I64;
    I.Dst = Dst;
    I.IImm = Value;
    return I;
  }

  static Instruction makeLoadF(Reg Dst, double Value) {
    Instruction I;
    I.Op = Opcode::LoadF;
    I.Ty = Type::F64;
    I.Dst = Dst;
    I.FImm = Value;
    return I;
  }

  static Instruction makeUnary(Opcode Op, Type Ty, Reg Dst, Reg Src) {
    assert(fixedOperandCount(Op) == 1 && "not a unary opcode");
    Instruction I;
    I.Op = Op;
    I.Ty = Ty;
    I.Dst = Dst;
    I.Operands = {Src};
    return I;
  }

  static Instruction makeBinary(Opcode Op, Type Ty, Reg Dst, Reg L, Reg R) {
    assert(fixedOperandCount(Op) == 2 && "not a binary opcode");
    Instruction I;
    I.Op = Op;
    I.Ty = Ty;
    I.Dst = Dst;
    I.Operands = {L, R};
    return I;
  }

  static Instruction makeCopy(Type Ty, Reg Dst, Reg Src) {
    return makeUnary(Opcode::Copy, Ty, Dst, Src);
  }

  static Instruction makeLoad(Type Ty, Reg Dst, Reg Addr) {
    return makeUnary(Opcode::Load, Ty, Dst, Addr);
  }

  static Instruction makeStore(Type Ty, Reg Addr, Reg Value) {
    Instruction I;
    I.Op = Opcode::Store;
    I.Ty = Ty;
    I.Operands = {Addr, Value};
    return I;
  }

  static Instruction makeCall(Intrinsic Intr, Type Ty, Reg Dst,
                              SmallVector<Reg, 2> Args) {
    assert(Args.size() == intrinsicArity(Intr) && "wrong intrinsic arity");
    Instruction I;
    I.Op = Opcode::Call;
    I.Ty = Ty;
    I.Dst = Dst;
    I.Intr = Intr;
    I.Operands = std::move(Args);
    return I;
  }

  static Instruction makeBr(BlockId Target) {
    Instruction I;
    I.Op = Opcode::Br;
    I.Succs = {Target};
    return I;
  }

  static Instruction makeCbr(Reg Cond, BlockId Taken, BlockId NotTaken) {
    Instruction I;
    I.Op = Opcode::Cbr;
    I.Operands = {Cond};
    I.Succs = {Taken, NotTaken};
    return I;
  }

  static Instruction makeRet() {
    Instruction I;
    I.Op = Opcode::Ret;
    return I;
  }

  static Instruction makeRet(Type Ty, Reg Value) {
    Instruction I;
    I.Op = Opcode::Ret;
    I.Ty = Ty;
    I.Operands = {Value};
    return I;
  }

  static Instruction makePhi(Type Ty, Reg Dst) {
    Instruction I;
    I.Op = Opcode::Phi;
    I.Ty = Ty;
    I.Dst = Dst;
    return I;
  }

  void addPhiIncoming(Reg Value, BlockId Pred) {
    assert(isPhi() && "not a phi");
    Operands.push_back(Value);
    PhiBlocks.push_back(Pred);
  }
};
static_assert(sizeof(Instruction) <= 80, "Instruction grew past 80 bytes");

} // namespace epre

#endif // EPRE_IR_INSTRUCTION_H
