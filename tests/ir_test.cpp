//===- tests/ir_test.cpp - IR core: opcodes, builder, verifier ------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace epre;

namespace {

TEST(Opcode, Traits) {
  EXPECT_TRUE(isCommutative(Opcode::Add));
  EXPECT_TRUE(isCommutative(Opcode::Mul));
  EXPECT_FALSE(isCommutative(Opcode::Sub));
  EXPECT_FALSE(isCommutative(Opcode::Div));
  EXPECT_FALSE(isCommutative(Opcode::Shl));

  EXPECT_TRUE(isAssociative(Opcode::Add));
  EXPECT_TRUE(isAssociative(Opcode::Min));
  EXPECT_TRUE(isAssociative(Opcode::Xor));
  EXPECT_FALSE(isAssociative(Opcode::Sub));
  EXPECT_FALSE(isAssociative(Opcode::Shl)); // the §5.2 pitfall

  EXPECT_TRUE(isTerminator(Opcode::Br));
  EXPECT_TRUE(isTerminator(Opcode::Cbr));
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_FALSE(isTerminator(Opcode::Add));

  EXPECT_TRUE(hasSideEffects(Opcode::Store));
  EXPECT_FALSE(hasSideEffects(Opcode::Call)); // intrinsics are pure
  EXPECT_FALSE(hasSideEffects(Opcode::Load)); // reads are idempotent

  // Loads and copies are not "expressions" in the PRE sense.
  EXPECT_FALSE(isExpression(Opcode::Load));
  EXPECT_FALSE(isExpression(Opcode::Copy));
  EXPECT_FALSE(isExpression(Opcode::Phi));
  EXPECT_TRUE(isExpression(Opcode::Call));
  EXPECT_TRUE(isExpression(Opcode::LoadI));
  EXPECT_TRUE(isExpression(Opcode::CmpLt));
}

TEST(Opcode, OperandCounts) {
  EXPECT_EQ(fixedOperandCount(Opcode::LoadI), 0);
  EXPECT_EQ(fixedOperandCount(Opcode::Neg), 1);
  EXPECT_EQ(fixedOperandCount(Opcode::Add), 2);
  EXPECT_EQ(fixedOperandCount(Opcode::Store), 2);
  EXPECT_EQ(fixedOperandCount(Opcode::Call), -1);
  EXPECT_EQ(fixedOperandCount(Opcode::Phi), -1);
  EXPECT_EQ(intrinsicArity(Intrinsic::Sqrt), 1u);
  EXPECT_EQ(intrinsicArity(Intrinsic::Pow), 2u);
  EXPECT_EQ(intrinsicArity(Intrinsic::Sign), 2u);
}

TEST(Function, RegisterAllocation) {
  Function F("f");
  Reg A = F.makeReg(Type::I64);
  Reg B = F.makeReg(Type::F64);
  EXPECT_NE(A, NoReg);
  EXPECT_NE(A, B);
  EXPECT_EQ(F.regType(A), Type::I64);
  EXPECT_EQ(F.regType(B), Type::F64);
  EXPECT_EQ(F.numRegs(), 3u); // slot 0 is reserved
}

TEST(Function, MakeRegBumpsVersion) {
  Function F("f");
  uint64_t V = F.version();
  F.makeReg(Type::I64);
  EXPECT_GT(F.version(), V);
}

TEST(Function, ParamsAndBlocks) {
  Function F("f");
  Reg P = F.addParam(Type::F64);
  EXPECT_TRUE(F.isParam(P));
  BasicBlock *B0 = F.addBlock("entry");
  BasicBlock *B1 = F.addBlock();
  EXPECT_EQ(B0->id(), 0u);
  EXPECT_EQ(B1->id(), 1u);
  EXPECT_EQ(F.entry(), B0);
  F.eraseBlock(B1->id());
  EXPECT_EQ(F.block(1), nullptr);
  unsigned Count = 0;
  F.forEachBlock([&](BasicBlock &) { ++Count; });
  EXPECT_EQ(Count, 1u);
}

TEST(Verifier, AcceptsWellFormed) {
  Function F("f");
  Reg P = F.addParam(Type::I64);
  F.setReturnType(Type::I64);
  IRBuilder B(F, F.addBlock("entry"));
  Reg C = B.loadI(2);
  Reg S = B.add(P, C);
  B.ret(S);
  EXPECT_TRUE(verifyFunction(F).empty());
}

TEST(Verifier, RejectsMissingTerminator) {
  Function F("f");
  IRBuilder B(F, F.addBlock("entry"));
  B.loadI(1);
  std::vector<std::string> E = verifyFunction(F);
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsMidBlockTerminator) {
  Function F("f");
  BasicBlock *BB = F.addBlock("entry");
  BB->Insts.push_back(Instruction::makeRet());
  BB->Insts.push_back(Instruction::makeRet());
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(Verifier, RejectsBadOperandCount) {
  Function F("f");
  BasicBlock *BB = F.addBlock("entry");
  Instruction I;
  I.Op = Opcode::Add;
  I.Ty = Type::I64;
  I.Dst = F.makeReg(Type::I64);
  I.Operands = {}; // add needs two
  BB->Insts.push_back(std::move(I));
  BB->Insts.push_back(Instruction::makeRet());
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(Verifier, RejectsTypeErrors) {
  Function F("f");
  Reg FP = F.addParam(Type::F64);
  BasicBlock *BB = F.addBlock("entry");
  // cbr on a float register is ill-typed.
  BasicBlock *T = F.addBlock("t");
  T->Insts.push_back(Instruction::makeRet());
  BasicBlock *E = F.addBlock("e");
  E->Insts.push_back(Instruction::makeRet());
  BB->Insts.push_back(Instruction::makeCbr(FP, T->id(), E->id()));
  std::vector<std::string> Errors = verifyFunction(F);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "cbr condition must be i64");
}

TEST(Verifier, RejectsIntegerOnlyOpTypedF64) {
  // `%r3:f64 = and %r1, %r2` on i64 operands: and/or/xor/not/shl/shr/mod
  // exist only on i64, so an f64 type or destination is ill-typed.
  for (Opcode Op : {Opcode::And, Opcode::Mod, Opcode::Shl}) {
    Function F("f");
    Reg A = F.addParam(Type::I64);
    Reg B = F.addParam(Type::I64);
    BasicBlock *BB = F.addBlock("entry");
    BB->Insts.push_back(
        Instruction::makeBinary(Op, Type::F64, F.makeReg(Type::F64), A, B));
    BB->Insts.push_back(Instruction::makeRet());
    std::vector<std::string> E = verifyFunction(F);
    ASSERT_FALSE(E.empty()) << opcodeName(Op);
    EXPECT_NE(E[0].find("must be typed i64"), std::string::npos) << E[0];
    // An i64 destination with an f64 instruction type is rejected too.
    BB->Insts[0].Dst = F.makeReg(Type::I64);
    EXPECT_FALSE(verifyFunction(F).empty()) << opcodeName(Op);
    BB->Insts[0].Ty = Type::I64;
    EXPECT_TRUE(verifyFunction(F).empty()) << opcodeName(Op);
  }
}

TEST(Verifier, RejectsWrongSuccessorCount) {
  Function F("f");
  Reg P = F.addParam(Type::I64);
  BasicBlock *BB = F.addBlock("entry");
  BasicBlock *T = F.addBlock("t");
  T->Insts.push_back(Instruction::makeRet());
  BasicBlock *E = F.addBlock("e");
  E->Insts.push_back(Instruction::makeRet());
  BB->Insts.push_back(Instruction::makeCbr(P, T->id(), E->id()));
  EXPECT_TRUE(verifyFunction(F).empty());
  BB->Insts[0].Succs = {T->id()}; // cbr with one target
  EXPECT_FALSE(verifyFunction(F).empty());
  BB->Insts[0] = Instruction::makeBr(T->id());
  BB->Insts[0].Succs.push_back(T->id()); // br with two targets
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(Verifier, RejectsEqualTargetCbr) {
  // A cbr names two distinct blocks in every mode, so phi entries and CFG
  // edges stay one-to-one.
  for (SSAMode Mode : {SSAMode::NoSSA, SSAMode::Relaxed, SSAMode::SSA}) {
    Function F("f");
    Reg P = F.addParam(Type::I64);
    BasicBlock *BB = F.addBlock("entry");
    BasicBlock *T = F.addBlock("t");
    T->Insts.push_back(Instruction::makeRet());
    BB->Insts.push_back(Instruction::makeCbr(P, T->id(), T->id()));
    std::vector<std::string> Errors = verifyFunction(F, Mode);
    ASSERT_EQ(Errors.size(), 1u);
    EXPECT_EQ(Errors[0], "block ^entry: cbr names one block twice");
    // IRBuilder folds the same branch on emission.
    BB->Insts.clear();
    IRBuilder(F, BB).cbr(P, T, T);
    EXPECT_EQ(BB->terminator().Op, Opcode::Br);
    EXPECT_TRUE(verifyFunction(F, Mode).empty());
  }
}

TEST(Verifier, RejectsBranchToErasedBlock) {
  Function F("f");
  BasicBlock *BB = F.addBlock("entry");
  BasicBlock *T = F.addBlock("t");
  T->Insts.push_back(Instruction::makeRet());
  BB->Insts.push_back(Instruction::makeBr(T->id()));
  F.eraseBlock(T->id());
  EXPECT_FALSE(verifyFunction(F).empty());
}

TEST(Verifier, SSAModeCatchesDoubleDef) {
  Function F("f");
  IRBuilder B(F, F.addBlock("entry"));
  Reg C = B.loadI(1);
  B.emit(Instruction::makeLoadI(C, 2)); // second def of C
  B.ret(C);
  EXPECT_TRUE(verifyFunction(F, SSAMode::Relaxed).empty());
  EXPECT_FALSE(verifyFunction(F, SSAMode::SSA).empty());
}

TEST(Verifier, NoSSAModeRejectsPhis) {
  Function F("f");
  BasicBlock *BB = F.addBlock("entry");
  Instruction Phi = Instruction::makePhi(Type::I64, F.makeReg(Type::I64));
  BB->Insts.push_back(std::move(Phi));
  BB->Insts.push_back(Instruction::makeRet());
  EXPECT_FALSE(verifyFunction(F, SSAMode::NoSSA).empty());
}

TEST(Verifier, PhiPredsMustMatchCFG) {
  Function F("f");
  Reg P = F.addParam(Type::I64);
  BasicBlock *A = F.addBlock("a");
  BasicBlock *Join = F.addBlock("j");
  A->Insts.push_back(Instruction::makeBr(Join->id()));
  Instruction Phi = Instruction::makePhi(Type::I64, F.makeReg(Type::I64));
  Phi.addPhiIncoming(P, A->id());
  Phi.addPhiIncoming(P, A->id()); // duplicate entry; only one edge exists
  Join->Insts.push_back(std::move(Phi));
  Join->Insts.push_back(Instruction::makeRet());
  EXPECT_FALSE(verifyFunction(F, SSAMode::SSA).empty());
}

} // namespace
