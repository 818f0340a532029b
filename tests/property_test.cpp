//===- tests/property_test.cpp - Random-program differential testing ------===//
///
/// Generates random (but trap-free by construction) Mini-FORTRAN programs
/// and checks that every optimization level computes the same result as
/// the unoptimized program. This is the library's strongest safety net:
/// each seed exercises arbitrary combinations of loops, branches, array
/// traffic, and mixed-type arithmetic through the entire pipeline.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace epre;

namespace {

class ProgramGenerator {
public:
  explicit ProgramGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src = "function rnd(p1, p2, k1)\n";
    Src += "  real p1, p2\n";
    Src += "  integer k1\n";
    Src += "  real arr(16)\n";
    // Seed the scalars.
    for (unsigned I = 0; I < NumReal; ++I)
      line(realVar(I) + " = " + realLit());
    for (unsigned I = 0; I < NumInt; ++I)
      line(intVar(I) + " = " + std::to_string(int(Rng() % 7)));
    line("do i0 = 1, 16");
    line("  arr(i0) = i0 * 0.5");
    line("end do");

    unsigned Stmts = 4 + Rng() % 10;
    for (unsigned I = 0; I < Stmts; ++I)
      statement(1);

    // Observe everything.
    std::string Sum = "p1";
    for (unsigned I = 0; I < NumReal; ++I)
      Sum += " + " + realVar(I);
    for (unsigned I = 0; I < NumInt; ++I)
      Sum += " + real(" + intVar(I) + ")";
    line("t9 = 0.0");
    line("do i0 = 1, 16");
    line("  t9 = t9 + arr(i0)");
    line("end do");
    line("return " + Sum + " + t9");
    Src += "end\n";
    return Src;
  }

private:
  static constexpr unsigned NumReal = 4;
  static constexpr unsigned NumInt = 3;

  std::string realVar(unsigned I) { return "v" + std::to_string(I); }
  std::string intVar(unsigned I) { return "m" + std::to_string(I); }

  std::string realLit() {
    return std::to_string((int(Rng() % 200) - 100)) + ".0e-1";
  }

  void line(const std::string &S) {
    for (unsigned I = 0; I < Depth; ++I)
      Src += "  ";
    Src += "  " + S + "\n";
  }

  /// A value expression of bounded depth that cannot trap.
  std::string realExpr(unsigned D) {
    switch (Rng() % (D == 0 ? 3 : 8)) {
    case 0:
      return realLit();
    case 1:
      return realVar(Rng() % NumReal);
    case 2:
      return Rng() % 2 ? "p1" : "p2";
    case 3:
      return "(" + realExpr(D - 1) + " + " + realExpr(D - 1) + ")";
    case 4:
      return "(" + realExpr(D - 1) + " - " + realExpr(D - 1) + ")";
    case 5:
      return "(" + realExpr(D - 1) + " * " + realLit() + ")";
    case 6:
      return "(" + realExpr(D - 1) + " / (abs(" + realExpr(D - 1) +
             ") + 1.0))";
    default:
      return "arr(mod(iabs(" + intExpr(D - 1) + "), 16) + 1)";
    }
  }

  std::string intExpr(unsigned D) {
    switch (Rng() % (D == 0 ? 3 : 6)) {
    case 0:
      return std::to_string(int(Rng() % 9));
    case 1:
    case 2:
      return intVar(Rng() % NumInt);
    case 3:
      return "(" + intExpr(D - 1) + " + " + intExpr(D - 1) + ")";
    case 4:
      return "(" + intExpr(D - 1) + " * " + std::to_string(int(Rng() % 4)) +
             ")";
    default:
      return "mod(" + intExpr(D - 1) + ", 13)";
    }
  }

  std::string condition() {
    const char *Ops[] = {" .lt. ", " .le. ", " .gt. ", " .ge. ", " .eq. ",
                         " .ne. "};
    if (Rng() % 2)
      return realExpr(1) + Ops[Rng() % 6] + realExpr(1);
    return intExpr(1) + Ops[Rng() % 6] + intExpr(1);
  }

  void statement(unsigned Budget) {
    switch (Rng() % 8) {
    case 0:
    case 1:
    case 2: // real assignment
      line(realVar(Rng() % NumReal) + " = " + realExpr(2));
      return;
    case 3: // int assignment
      line(intVar(Rng() % NumInt) + " = " + intExpr(2));
      return;
    case 4: // array store with a safe index
      line("arr(mod(iabs(" + intExpr(1) + "), 16) + 1) = " + realExpr(2));
      return;
    case 5: { // if/else
      line("if (" + condition() + ") then");
      ++Depth;
      statement(0);
      if (Budget)
        statement(0);
      --Depth;
      if (Rng() % 2) {
        line("else");
        ++Depth;
        statement(0);
        --Depth;
      }
      line("end if");
      return;
    }
    case 6: { // counted loop; induction variable unique per nesting level
      if (LoopDepth >= 3) {
        line(realVar(Rng() % NumReal) + " = " + realExpr(2));
        return;
      }
      std::string IV = "i" + std::to_string(++LoopDepth);
      line("do " + IV + " = 1, " + std::to_string(2 + Rng() % 6));
      ++Depth;
      statement(0);
      if (Budget)
        statement(0);
      --Depth;
      --LoopDepth;
      line("end do");
      return;
    }
    default: // accumulation (the PRE-friendly pattern)
      line(realVar(Rng() % NumReal) + " = " + realVar(Rng() % NumReal) +
           " + " + realExpr(1));
      return;
    }
  }

  std::mt19937 Rng;
  std::string Src;
  unsigned Depth = 0;
  unsigned LoopDepth = 0;
};

struct RunResult {
  bool Ok = false;
  double Value = 0;
  uint64_t Ops = 0;
  std::string Why;
};

RunResult runAt(const std::string &Src, OptLevel L) {
  RunResult RR;
  NamingMode NM =
      L == OptLevel::Partial ? NamingMode::Hashed : NamingMode::Naive;
  LowerResult LR = compileMiniFortran(Src, NM);
  if (!LR.ok()) {
    RR.Why = "compile: " + LR.Error;
    return RR;
  }
  Function *F = LR.M->find("rnd");
  if (!F) {
    RR.Why = "missing function";
    return RR;
  }
  PipelineOptions PO;
  PO.Level = L;
  optimizeFunction(*F, PO);
  MemoryImage Mem(LR.Routines[0].LocalMemBytes);
  ExecResult E = interpret(
      F[0], {RtValue::ofF(1.25), RtValue::ofF(-0.75), RtValue::ofI(3)}, Mem);
  if (E.Trapped) {
    RR.Why = "trap: " + E.TrapReason + "\n" + printFunction(*F);
    return RR;
  }
  RR.Ok = true;
  RR.Value = E.ReturnValue.F;
  RR.Ops = E.DynOps;
  return RR;
}

class RandomPrograms : public testing::TestWithParam<unsigned> {};

TEST_P(RandomPrograms, AllLevelsAgree) {
  ProgramGenerator Gen(GetParam());
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);

  RunResult Ref = runAt(Src, OptLevel::None);
  ASSERT_TRUE(Ref.Ok) << Ref.Why;

  for (OptLevel L : {OptLevel::Baseline, OptLevel::Partial,
                     OptLevel::Reassociation, OptLevel::Distribution}) {
    RunResult Got = runAt(Src, L);
    ASSERT_TRUE(Got.Ok) << optLevelName(L) << ": " << Got.Why;
    bool Reassoc =
        L == OptLevel::Reassociation || L == OptLevel::Distribution;
    if (Reassoc) {
      EXPECT_NEAR(Ref.Value, Got.Value,
                  1e-6 * (1.0 + std::fabs(Ref.Value)))
          << optLevelName(L);
    } else {
      EXPECT_EQ(Ref.Value, Got.Value) << optLevelName(L);
    }
    // No catastrophic slowdowns.
    EXPECT_LE(Got.Ops, Ref.Ops + Ref.Ops / 2 + 128) << optLevelName(L);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, testing::Range(0u, 60u));

} // namespace
