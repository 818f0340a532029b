//===- tests/parser_test.cpp - Textual IR printer/parser ------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace epre;

namespace {

const char *Sample = R"(
func @f(%a:i64, %b:f64) -> f64 {
^entry:
  %c:i64 = loadi 42
  %d:i64 = add %a, %c
  %e:f64 = i2f %d
  %g:f64 = mul %e, %b
  %h:f64 = call sqrt(%g)
  cbr %d, ^then, ^else
^then:
  %i:f64 = loadf 1.5
  store %i -> %d
  br ^join
^else:
  %j:f64 = load %d
  br ^join
^join:
  %k:f64 = phi [%h, ^then], [%j, ^else]
  ret %k
}
)";

TEST(Parser, ParsesSample) {
  ParseResult R = parseModule(Sample);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.M->Functions.size(), 1u);
  Function &F = *R.M->Functions[0];
  EXPECT_EQ(F.name(), "f");
  EXPECT_EQ(F.params().size(), 2u);
  ASSERT_TRUE(F.returnType().has_value());
  EXPECT_EQ(*F.returnType(), Type::F64);
  EXPECT_EQ(F.numBlocks(), 4u);
  EXPECT_TRUE(verifyFunction(F).empty());
}

TEST(Parser, RoundTripIsStable) {
  ParseResult R1 = parseModule(Sample);
  ASSERT_TRUE(R1.ok()) << R1.Error;
  std::string P1 = printModule(*R1.M);
  ParseResult R2 = parseModule(P1);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  std::string P2 = printModule(*R2.M);
  // Printing a parse of printed output must be a fixed point.
  EXPECT_EQ(P1, P2);
}

TEST(Parser, FloatRoundTrip) {
  const char *Src = R"(
func @g() -> f64 {
^e:
  %a:f64 = loadf 0.1
  %b:f64 = loadf -1.5e-300
  %c:f64 = loadf 3.0
  %d:f64 = add %a, %b
  %e2:f64 = add %d, %c
  ret %e2
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const BasicBlock *B = R.M->Functions[0]->entry();
  EXPECT_EQ(B->Insts[0].FImm, 0.1);
  EXPECT_EQ(B->Insts[1].FImm, -1.5e-300);
  std::string P1 = printModule(*R.M);
  ParseResult R2 = parseModule(P1);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  EXPECT_EQ(R2.M->Functions[0]->entry()->Insts[0].FImm, 0.1);
}

TEST(Parser, ForwardBlockReferences) {
  const char *Src = R"(
func @h(%p:i64) {
^a:
  cbr %p, ^c, ^b
^b:
  br ^c
^c:
  ret
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(verifyFunction(*R.M->Functions[0]).empty());
}

TEST(Parser, ErrorUnknownOpcode) {
  ParseResult R = parseModule("func @f() {\n^e:\n  %a:i64 = frob 1\n  ret\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("frob"), std::string::npos);
}

TEST(Parser, ErrorUndefinedRegister) {
  ParseResult R = parseModule("func @f() {\n^e:\n  ret %x\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("never defined"), std::string::npos);
}

TEST(Parser, ErrorUnknownBlock) {
  ParseResult R = parseModule("func @f() {\n^e:\n  br ^nowhere\n}");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, ErrorDuplicateLabel) {
  ParseResult R =
      parseModule("func @f() {\n^e:\n  ret\n^e:\n  ret\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("duplicate"), std::string::npos);
}

TEST(Parser, CommentsAndWhitespace) {
  const char *Src = R"(
; leading comment
func @f() -> i64 {   ; trailing comment
^e:
  %a:i64 = loadi 7   ; the meaning of life, minus 35
  ret %a
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->Functions[0]->entry()->Insts[0].IImm, 7);
}

TEST(Parser, MultipleFunctions) {
  const char *Src = R"(
func @a() { ^e: ret }
func @b() { ^e: ret }
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->Functions.size(), 2u);
  EXPECT_NE(R.M->find("a"), nullptr);
  EXPECT_NE(R.M->find("b"), nullptr);
  EXPECT_EQ(R.M->find("c"), nullptr);
}

TEST(Parser, ComparisonTypeInferred) {
  const char *Src = R"(
func @f(%x:f64, %y:f64) -> i64 {
^e:
  %c:i64 = cmplt %x, %y
  ret %c
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Instruction &Cmp = R.M->Functions[0]->entry()->Insts[0];
  EXPECT_EQ(Cmp.Ty, Type::F64); // operand type
  EXPECT_TRUE(verifyFunction(*R.M->Functions[0]).empty());
}

TEST(Parser, FoldsEqualTargetBranchWithAgreeingPhis) {
  // Both edges from ^e carry %a into ^j's phi: the branch becomes br and
  // the phi keeps one entry from ^e.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^e:
  %a:i64 = loadi 3
  cbr %p, ^j, ^j
^m:
  %b:i64 = loadi 4
  br ^j
^j:
  %c:i64 = phi [%a, ^e], [%b, ^m], [%a, ^e]
  ret %c
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Function &F = *R.M->Functions[0];
  EXPECT_EQ(F.entry()->terminator().Op, Opcode::Br);
  EXPECT_EQ(F.entry()->terminator().Succs[0], 2u);
  const Instruction &Phi = F.block(2)->Insts[0];
  ASSERT_EQ(Phi.PhiBlocks.size(), 2u);
  EXPECT_EQ(Phi.PhiBlocks[0], 0u);
  EXPECT_EQ(Phi.PhiBlocks[1], 1u);
  EXPECT_TRUE(verifyFunction(F, SSAMode::Relaxed).empty());
  EXPECT_EQ(printFunction(F).find("cbr"), std::string::npos);
}

TEST(Parser, ErrorEqualTargetBranchWithDisagreeingPhis) {
  // No single edge from ^e can carry both %a and %b.
  const char *Src = "func @f(%p:i64) -> i64 {\n"
                    "^e:\n"
                    "  %a:i64 = loadi 3\n"
                    "  %b:i64 = loadi 4\n"
                    "  cbr %p, ^j, ^j\n"
                    "^j:\n"
                    "  %c:i64 = phi [%a, ^e], [%b, ^e]\n"
                    "  ret %c\n"
                    "}\n";
  ParseResult R = parseModule(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "line 5: cbr names one block twice, whose phis "
                     "disagree on the value from ^e");
}

} // namespace
