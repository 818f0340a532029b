//===- ir/IRBuilder.h - Convenience IR construction --------------*- C++ -*-===//
///
/// \file
/// A small builder that appends instructions to a basic block, allocating
/// destination registers and inferring types from operands.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_IR_IRBUILDER_H
#define EPRE_IR_IRBUILDER_H

#include "ir/Function.h"

namespace epre {

/// Appends instructions at the end of the current insertion block.
class IRBuilder {
public:
  explicit IRBuilder(Function &F, BasicBlock *BB = nullptr)
      : F(F), BB(BB) {}

  Function &function() { return F; }
  BasicBlock *insertBlock() { return BB; }
  void setInsertPoint(BasicBlock *B) { BB = B; }

  /// Creates a block without moving the insertion point.
  BasicBlock *makeBlock(std::string Label = "") {
    return F.addBlock(std::move(Label));
  }

  Reg loadI(int64_t V) {
    Reg Dst = F.makeReg(Type::I64);
    emit(Instruction::makeLoadI(Dst, V));
    return Dst;
  }

  Reg loadF(double V) {
    Reg Dst = F.makeReg(Type::F64);
    emit(Instruction::makeLoadF(Dst, V));
    return Dst;
  }

  /// Emits a binary operation; both operands must have the same type.
  Reg binary(Opcode Op, Reg L, Reg R) {
    Type Ty = F.regType(L);
    assert(Ty == F.regType(R) && "operand type mismatch");
    assert(!isIntegerOnly(Op) || Ty == Type::I64);
    Reg Dst = F.makeReg(isComparison(Op) ? Type::I64 : Ty);
    Instruction I = Instruction::makeBinary(Op, Ty, Dst, L, R);
    emit(std::move(I));
    return Dst;
  }

  Reg add(Reg L, Reg R) { return binary(Opcode::Add, L, R); }
  Reg sub(Reg L, Reg R) { return binary(Opcode::Sub, L, R); }
  Reg mul(Reg L, Reg R) { return binary(Opcode::Mul, L, R); }
  Reg div(Reg L, Reg R) { return binary(Opcode::Div, L, R); }

  Reg unary(Opcode Op, Reg Src) {
    Type Ty = F.regType(Src);
    Type DstTy = Ty;
    if (Op == Opcode::I2F)
      DstTy = Type::F64;
    else if (Op == Opcode::F2I)
      DstTy = Type::I64;
    Reg Dst = F.makeReg(DstTy);
    emit(Instruction::makeUnary(Op, Ty, Dst, Src));
    return Dst;
  }

  Reg neg(Reg Src) { return unary(Opcode::Neg, Src); }
  Reg i2f(Reg Src) { return unary(Opcode::I2F, Src); }
  Reg f2i(Reg Src) { return unary(Opcode::F2I, Src); }

  /// Emits a copy into a *new* register and returns it.
  Reg copy(Reg Src) {
    Reg Dst = F.makeReg(F.regType(Src));
    emit(Instruction::makeCopy(F.regType(Src), Dst, Src));
    return Dst;
  }

  /// Emits a copy into an existing register (a "variable name").
  void copyTo(Reg Dst, Reg Src) {
    assert(F.regType(Dst) == F.regType(Src) && "copy type mismatch");
    emit(Instruction::makeCopy(F.regType(Src), Dst, Src));
  }

  Reg load(Type Ty, Reg Addr) {
    assert(F.regType(Addr) == Type::I64 && "address must be I64");
    Reg Dst = F.makeReg(Ty);
    emit(Instruction::makeLoad(Ty, Dst, Addr));
    return Dst;
  }

  void store(Reg Value, Reg Addr) {
    assert(F.regType(Addr) == Type::I64 && "address must be I64");
    emit(Instruction::makeStore(F.regType(Value), Addr, Value));
  }

  Reg call(Intrinsic Intr, SmallVector<Reg, 2> Args) {
    assert(!Args.empty());
    Type Ty = F.regType(Args[0]);
    Reg Dst = F.makeReg(Ty);
    emit(Instruction::makeCall(Intr, Ty, Dst, std::move(Args)));
    return Dst;
  }

  void br(BasicBlock *Target) { emit(Instruction::makeBr(Target->id())); }

  /// Emits `br` when both targets are one block (foldEqualTargetBranch).
  void cbr(Reg Cond, BasicBlock *Taken, BasicBlock *NotTaken) {
    emit(Instruction::makeCbr(Cond, Taken->id(), NotTaken->id()));
    [[maybe_unused]] bool Folded = foldEqualTargetBranch(F, *BB);
    assert(Folded && "phi entries from the branch disagree");
  }

  void ret() { emit(Instruction::makeRet()); }
  void ret(Reg Value) {
    emit(Instruction::makeRet(F.regType(Value), Value));
  }

  void emit(Instruction I) {
    assert(BB && "no insertion block");
    assert(!BB->hasTerminator() && "appending past a terminator");
    BB->Insts.push_back(std::move(I));
  }

private:
  Function &F;
  BasicBlock *BB;
};

} // namespace epre

#endif // EPRE_IR_IRBUILDER_H
