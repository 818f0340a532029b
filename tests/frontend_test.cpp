//===- tests/frontend_test.cpp - Mini-FORTRAN parser and lowering ---------===//

#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/ExprKey.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

using namespace epre;

namespace {

Function *lower(const char *Src, NamingMode NM, LowerResult &LR,
                const char *Name) {
  LR = compileMiniFortran(Src, NM);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  if (!LR.ok())
    return nullptr;
  Function *F = LR.M->find(Name);
  EXPECT_NE(F, nullptr);
  if (F) {
    std::vector<std::string> E = verifyFunction(*F, SSAMode::NoSSA);
    EXPECT_TRUE(E.empty()) << E.front() << "\n" << printFunction(*F);
  }
  return F;
}

double runF(Function &F, std::vector<RtValue> Args, size_t MemBytes = 0) {
  MemoryImage Mem(MemBytes);
  ExecResult R = interpret(F, Args, Mem);
  EXPECT_TRUE(R.ok()) << R.TrapReason;
  return R.HasReturn && R.ReturnValue.isF() ? R.ReturnValue.F
                                            : double(R.ReturnValue.I);
}

TEST(Frontend, ImplicitTyping) {
  EXPECT_EQ(ast::implicitType("i"), ast::SrcType::Integer);
  EXPECT_EQ(ast::implicitType("n42"), ast::SrcType::Integer);
  EXPECT_EQ(ast::implicitType("index"), ast::SrcType::Integer);
  EXPECT_EQ(ast::implicitType("x"), ast::SrcType::Real);
  EXPECT_EQ(ast::implicitType("a"), ast::SrcType::Real);
  EXPECT_EQ(ast::implicitType("h2o"), ast::SrcType::Real);
}

TEST(Frontend, ArithmeticAndPrecedence) {
  LowerResult LR;
  Function *F = lower(R"(
function prec(a, b)
  real a, b
  return a + b * 2.0 - a / b ** 2.0
end
)",
                      NamingMode::Naive, LR, "prec");
  ASSERT_NE(F, nullptr);
  double A = 3.0, B = 2.0;
  EXPECT_DOUBLE_EQ(runF(*F, {RtValue::ofF(A), RtValue::ofF(B)}),
                   A + B * 2.0 - A / std::pow(B, 2.0));
}

TEST(Frontend, IntegerDivisionTruncates) {
  LowerResult LR;
  Function *F = lower(R"(
function idiv(i, j)
  idiv = i / j
  return
end
)",
                      NamingMode::Naive, LR, "idiv");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(runF(*F, {RtValue::ofI(7), RtValue::ofI(2)}), 3.0);
  EXPECT_EQ(runF(*F, {RtValue::ofI(-7), RtValue::ofI(2)}), -3.0);
}

TEST(Frontend, MixedTypePromotion) {
  LowerResult LR;
  Function *F = lower(R"(
function mixed(i, x)
  real x, mixed
  mixed = i / 2 + x
  return
end
)",
                      NamingMode::Naive, LR, "mixed");
  ASSERT_NE(F, nullptr);
  // i/2 in integer arithmetic, then promoted.
  EXPECT_EQ(runF(*F, {RtValue::ofI(7), RtValue::ofF(0.5)}), 3.5);
}

TEST(Frontend, DoLoopSemantics) {
  const char *Src = R"(
function trip(lo, hi, n)
  integer lo, hi, n
  n = 0
  do i = lo, hi
    n = n + 1
  end do
  return n
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "trip");
  ASSERT_NE(F, nullptr);
  auto Trip = [&](int64_t Lo, int64_t Hi) {
    return runF(*F, {RtValue::ofI(Lo), RtValue::ofI(Hi), RtValue::ofI(0)});
  };
  EXPECT_EQ(Trip(1, 10), 10.0);
  EXPECT_EQ(Trip(5, 5), 1.0);
  EXPECT_EQ(Trip(6, 5), 0.0); // zero-trip loop
}

TEST(Frontend, DoLoopNegativeStep) {
  const char *Src = R"(
function down(n)
  integer n
  ksum = 0
  do i = n, 1, -1
    ksum = ksum + i
  end do
  return ksum
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "down");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(runF(*F, {RtValue::ofI(4)}), 10.0);
  EXPECT_EQ(runF(*F, {RtValue::ofI(0)}), 0.0);
}

TEST(Frontend, WhileAndLogicalOps) {
  const char *Src = R"(
function wl(n)
  integer n, i
  i = 0
  k = 0
  while (i .lt. n .and. .not. (i .eq. 7))
    i = i + 1
    k = k + 2
  end while
  return k
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "wl");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(runF(*F, {RtValue::ofI(5)}), 10.0);
  EXPECT_EQ(runF(*F, {RtValue::ofI(20)}), 14.0); // stops at i == 7
}

TEST(Frontend, TwoDArrayColumnMajor) {
  const char *Src = R"(
function colmaj(n)
  integer n
  real a(4,4)
  do j = 1, n
    do i = 1, n
      a(i,j) = i * 10 + j
    end do
  end do
  return a(2,3)
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "colmaj");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(runF(*F, {RtValue::ofI(4)}, LR.Routines[0].LocalMemBytes),
            23.0);
  // Array info recorded for the driver.
  ASSERT_TRUE(LR.Routines[0].Arrays.count("a"));
  EXPECT_EQ(LR.Routines[0].Arrays.at("a").Dims.size(), 2u);
  EXPECT_EQ(LR.Routines[0].LocalMemBytes, 16u * 8u);
}

TEST(Frontend, ParamArrayIsBaseAddress) {
  const char *Src = R"(
function psum(n, v)
  integer n
  real v(100)
  s = 0.0
  do i = 1, n
    s = s + v(i)
  end do
  return s
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "psum");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->regType(F->params()[1]), Type::I64); // base address
  MemoryImage Mem(0);
  int64_t Base = Mem.allocate(5 * 8);
  for (int I = 0; I < 5; ++I)
    Mem.storeF64(Base + I * 8, I + 1.0);
  ExecResult R =
      interpret(*F, {RtValue::ofI(5), RtValue::ofI(Base)}, Mem);
  ASSERT_TRUE(R.ok()) << R.TrapReason;
  EXPECT_EQ(R.ReturnValue.F, 15.0);
}

TEST(Frontend, HashedNamingGivesLexicalIdentity) {
  // In the §2.2 discipline, the two occurrences of a+b must share one
  // destination register, and variables receive values only via copies.
  const char *Src = R"(
function hx(a, b)
  x = a + b
  y = a + b
  return x * y
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Hashed, LR, "hx");
  ASSERT_NE(F, nullptr);
  std::map<uint64_t, Reg> SeenAdd;
  unsigned AddCount = 0;
  Reg AddDst = NoReg;
  bool Consistent = true;
  F->forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (I.Op != Opcode::Add)
        continue;
      ++AddCount;
      if (AddDst == NoReg)
        AddDst = I.Dst;
      else
        Consistent &= AddDst == I.Dst;
    }
  });
  EXPECT_EQ(AddCount, 2u);
  EXPECT_TRUE(Consistent);
  // Assignments to x and y are copies.
  unsigned Copies = 0;
  F->forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      Copies += I.isCopy();
  });
  EXPECT_GE(Copies, 2u);
}

TEST(Frontend, NaiveNamingAssignsDirectly) {
  const char *Src = R"(
function nv(a, b)
  x = a + b
  return x
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "nv");
  ASSERT_NE(F, nullptr);
  // Figure 3 shape: the add targets the variable; no copy.
  unsigned Copies = 0;
  F->forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      Copies += I.isCopy();
  });
  EXPECT_EQ(Copies, 0u);
}

TEST(Frontend, IntrinsicsLower) {
  const char *Src = R"(
function intr(x, i)
  real x, intr
  integer i
  a = sqrt(x) + abs(0.0 - x) + sin(x) * cos(x) + exp(x) - log(x)
  a = a + min(x, 2.0) + max(x, 2.0) + sign(3.0, 0.0 - x)
  k = mod(i, 3) + iabs(0 - i) + int(x)
  return a + real(k)
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "intr");
  ASSERT_NE(F, nullptr);
  double X = 2.5;
  int64_t I = 7;
  double A = std::sqrt(X) + std::fabs(-X) + std::sin(X) * std::cos(X) +
             std::exp(X) - std::log(X);
  A += std::min(X, 2.0) + std::max(X, 2.0) + (-3.0);
  int64_t K = I % 3 + I + int64_t(X);
  EXPECT_DOUBLE_EQ(runF(*F, {RtValue::ofF(X), RtValue::ofI(I)}),
                   A + double(K));
}

TEST(Frontend, ErrorMessages) {
  EXPECT_NE(compileMiniFortran("function f(\n", NamingMode::Naive)
                .Error.find("line"),
            std::string::npos);
  EXPECT_FALSE(
      compileMiniFortran("function f(a)\n  return q(1)\nend\n",
                         NamingMode::Naive)
          .ok()); // unknown array/intrinsic
  EXPECT_FALSE(compileMiniFortran(
                   "function f(a)\n  real a(2,2)\n  return a(1)\nend\n",
                   NamingMode::Naive)
                   .ok()); // wrong subscript count
  EXPECT_FALSE(compileMiniFortran(
                   "function f(a)\n  do i = 1, 10, 0\n  end do\nend\n",
                   NamingMode::Naive)
                   .ok()); // zero step
}

TEST(Frontend, NestingIsCappedAtEveryShape) {
  // Each shape compiles and runs at the cap, and one level more is a
  // "line N:" error, not a stack overflow in lowering or AST destruction.
  for (test::Nesting Shape :
       {test::Nesting::Parens, test::Nesting::Sum, test::Nesting::Ifs}) {
    std::string AtCap = test::nestedSource(Shape, MaxSourceNesting);
    LowerResult LR;
    Function *F = lower(AtCap.c_str(), NamingMode::Hashed, LR, "f");
    ASSERT_NE(F, nullptr) << int(Shape);
    double Expected =
        Shape == test::Nesting::Sum ? 3.0 * (MaxSourceNesting + 1) : 3.0;
    EXPECT_DOUBLE_EQ(runF(*F, {RtValue::ofF(3.0)}), Expected);

    LowerResult Over = compileMiniFortran(
        test::nestedSource(Shape, MaxSourceNesting + 1), NamingMode::Hashed);
    const std::string Cap =
        strprintf("nesting deeper than %u levels", MaxSourceNesting);
    EXPECT_EQ(Over.Error.rfind("line ", 0), 0u) << Over.Error;
    EXPECT_NE(Over.Error.find(Cap), std::string::npos) << Over.Error;
  }
}

TEST(Frontend, NestingCapCountsMixedShapesTogether) {
  // A chain whose first right operand is parenthesised: the chain's length
  // and the parentheses add up, as they do in the tree lowering walks.
  const unsigned Half = MaxSourceNesting / 2;
  auto Src = [&](unsigned Chain, unsigned Parens) {
    std::string S = "function f(x)\n  y = x + ";
    S += std::string(Parens, '(') + "x" + std::string(Parens, ')');
    for (unsigned I = 1; I < Chain; ++I)
      S += " + x";
    return S + "\n  return y\nend\n";
  };
  EXPECT_TRUE(compileMiniFortran(Src(Half, Half), NamingMode::Naive).ok());
  EXPECT_FALSE(compileMiniFortran(Src(Half, Half + 1), NamingMode::Naive).ok());
}

TEST(Frontend, FunctionNameAsResultVariable) {
  const char *Src = R"(
function acc(n)
  integer n
  acc = 0.0
  do i = 1, n
    acc = acc + 1.5
  end do
  return
end
)";
  LowerResult LR;
  Function *F = lower(Src, NamingMode::Naive, LR, "acc");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(runF(*F, {RtValue::ofI(4)}), 6.0);
}

} // namespace
