//===- tests/TestUtil.h - Shared test helpers --------------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the test suite: compile Mini-FORTRAN, run pipelines,
/// interpret, and compare observable behaviour across optimization levels.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_TESTUTIL_H
#define EPRE_TESTS_TESTUTIL_H

#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "instrument/PassInstrumentation.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/Pipeline.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <functional>
#include <pthread.h>

namespace epre::test {

/// The three ways Mini-FORTRAN source nests, each \p Levels deep
/// (MaxSourceNesting counts them): parentheses around one operand, a flat
/// sum of Levels + 1 terms (a left-deep tree of Levels operators), and IF
/// statements nested Levels deep around a plain assignment.
enum class Nesting { Parens, Sum, Ifs };

inline std::string nestedSource(Nesting Shape, unsigned Levels) {
  std::string S = "function f(x)\n  y = x\n";
  switch (Shape) {
  case Nesting::Parens:
    S += "  y = " + std::string(Levels, '(') + "x" + std::string(Levels, ')');
    S += "\n";
    break;
  case Nesting::Sum:
    S += "  y = x";
    for (unsigned I = 0; I < Levels; ++I)
      S += "+x";
    S += "\n";
    break;
  case Nesting::Ifs:
    for (unsigned I = 0; I < Levels; ++I)
      S += "  if (x > 0) then\n";
    S += "  y = x\n";
    for (unsigned I = 0; I < Levels; ++I)
      S += "  end if\n";
    break;
  }
  return S + "  return y\nend\n";
}

/// The front-end naming mode each optimization level is measured with in
/// the paper's experiment: PRE-only needs the hashed discipline; the
/// reassociation levels build their own naming and take naive input.
inline NamingMode namingFor(OptLevel L) {
  return L == OptLevel::Partial ? NamingMode::Hashed : NamingMode::Naive;
}

/// A routine of \p NumLoops sequential loop nests with shared invariant
/// subexpressions and array addressing, shaped like the bench generator.
inline std::string loopNestSource(unsigned NumLoops) {
  std::string S = "function gen(a, b, n)\n  integer n\n  real w(64)\n";
  S += "  s = 0.0\n";
  for (unsigned L = 0; L < NumLoops; ++L) {
    S += strprintf("  do i%u = 1, n\n", L);
    S += strprintf("    w(i%u) = (a + b) * i%u + a * %u.0\n", L, L, L + 1);
    S += strprintf("    s = s + w(i%u) + (a + b + %u.0)\n", L, L);
    S += "  end do\n";
  }
  S += "  return s\nend\n";
  return S;
}

/// A loop chain shaped like the benchmark's big functions: every loop has
/// array addressing, invariant subexpressions shared with its neighbours
/// and a guarded store whose value needs an invariant product only the
/// guarded path computes.
inline std::string loopChain(unsigned Loops) {
  std::string S =
      "function chain(a, b, n, m)\n  real w(64), v(64)\n  s = 0.0\n";
  for (unsigned L = 0; L < Loops; ++L) {
    std::string I = "i";
    I += std::to_string(L);
    std::string C = std::to_string(1 + 3 * L);
    S += "  do " + I + " = 1, n\n";
    S += "    w(" + I + ") = (a + b) * " + I + " + a * " + C + ".25\n";
    S += "    t = w(" + I + ") * (a + b + " + C + ".5)\n";
    S += "    s = s + t\n";
    S += "    if (" + I + " .gt. m) then\n";
    S += "      v(" + I + ") = t - a * " + C + ".75\n";
    S += "    end if\n  end do\n";
  }
  return S + "  return s + v(n)\nend\n";
}

/// An ILOC loop `@carried(%r1)` that runs %r1 trips carrying \p K integer
/// variables %r4 .. %r(K+3), initially 1 .. K, and returns the first. The
/// body is \p Body, then the counter %r2 steps by %r3 = 1; \p NextReg is the
/// first register the body leaves free.
inline std::string carriedLoop(unsigned K, const std::string &Body,
                               unsigned NextReg) {
  std::string S = "func @carried(%r1:i64) -> i64 {\n^entry:\n"
                  "  %r2:i64 = loadi 0\n  %r3:i64 = loadi 1\n";
  for (unsigned I = 0; I < K; ++I)
    S += strprintf("  %%r%u:i64 = loadi %u\n", 4 + I, 1 + I);
  S += strprintf("  br ^head\n^head:\n  %%r%u:i64 = cmplt %%r2, %%r1\n"
                 "  cbr %%r%u, ^body, ^exit\n^body:\n",
                 NextReg, NextReg);
  S += Body;
  S += strprintf("  %%r%u:i64 = add %%r2, %%r3\n  %%r2:i64 = copy %%r%u\n"
                 "  br ^head\n^exit:\n  ret %%r4\n}\n",
                 NextReg + 1, NextReg + 1);
  return S;
}

/// The ring: each trip sets v_i = v_i + v_(i+1 mod K) for i = 0 .. K-1 in
/// turn, so every variable is carried and every export tree reads two
/// loop variables.
inline std::string carriedRing(unsigned K) {
  std::string Body;
  for (unsigned I = 0; I < K; ++I)
    Body += strprintf("  %%r%u:i64 = add %%r%u, %%r%u\n"
                      "  %%r%u:i64 = copy %%r%u\n",
                      4 + K + I, 4 + I, 4 + (I + 1) % K, 4 + I, 4 + K + I);
  return carriedLoop(K, Body, 4 + 2 * K);
}

/// The rotation: each trip sets v_i = v_(i-1) for every i at once (v_0
/// takes v_(K-1)), so the phis form one K-cycle of copies.
inline std::string carriedRotation(unsigned K) {
  std::string Body = strprintf("  %%r%u:i64 = copy %%r%u\n", 4 + K, 3 + K);
  for (unsigned I = K - 1; I > 0; --I)
    Body += strprintf("  %%r%u:i64 = copy %%r%u\n", 4 + I, 3 + I);
  Body += strprintf("  %%r4:i64 = copy %%r%u\n", 4 + K);
  return carriedLoop(K, Body, 5 + K);
}

/// A chain of two forwarding blocks into a phi: threading ^b1 retargets the
/// entry to ^b2, so ^b2's predecessors change in mid-sweep. Returns 1 when
/// %r1 is nonzero, else 2.
inline const char *ForwardingChainIntoPhi = R"(
func @f(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 1
  cbr %r1, ^b1, ^q
^b1:
  br ^b2
^b2:
  br ^t
^q:
  %r3:i64 = loadi 2
  br ^t
^t:
  %r4:i64 = phi [%r2, ^b2], [%r3, ^q]
  ret %r4
}
)";

/// A loop whose header is both targets of the entry's cbr and of the
/// latch's. Returns 7 whatever %r1 is. Unfolded, each branch would give
/// every header phi two entries, one per edge, which the reassociation
/// levels turned into a loop that never ends; the parser folds them.
inline const char *DuplicateTargetLoop = R"(
func @dup(%r1:i64) -> i64 {
^e:
  %r2:i64 = loadi 0
  %r3:i64 = loadi 1
  %r4:i64 = loadi 5
  cbr %r1, ^l, ^l
^l:
  %r2:i64 = add %r2, %r3
  %r6:i64 = cmplt %r2, %r4
  cbr %r6, ^m, ^x
^m:
  %r3:i64 = add %r3, %r3
  cbr %r6, ^l, ^l
^x:
  ret %r2
}
)";

/// DuplicateTargetLoop with a second variable carried through the header.
/// Returns 10 whatever %r1 is.
inline const char *DuplicateTargetLoopTwoVars = R"(
func @dup2(%r1:i64) -> i64 {
^e:
  %r2:i64 = loadi 0
  %r3:i64 = loadi 1
  %r4:i64 = loadi 5
  %r7:i64 = loadi 10
  cbr %r1, ^l, ^l
^l:
  %r2:i64 = add %r2, %r3
  %r7:i64 = sub %r7, %r3
  %r6:i64 = cmplt %r2, %r4
  cbr %r6, ^m, ^x
^m:
  %r3:i64 = add %r3, %r3
  cbr %r6, ^l, ^l
^x:
  %r8:i64 = add %r2, %r7
  ret %r8
}
)";

/// Interprets the integer function \p F on the single argument \p Arg.
inline int64_t runOn(const Function &F, int64_t Arg) {
  MemoryImage Mem(0);
  ExecResult R = interpret(F, {RtValue::ofI(Arg)}, Mem);
  EXPECT_TRUE(R.ok()) << R.TrapReason;
  return R.ReturnValue.I;
}

/// Runs a pass class on \p F with a quiet context, returning the pass
/// object so callers can read lastStats().
template <typename PassT> PassT runPass(Function &F, PassT P = PassT()) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  P.run(F, Ctx);
  return P;
}

/// Runs a pass class on \p F and returns the counters it published.
template <typename PassT>
StatsRegistry runPassCounters(Function &F, PassT P = PassT()) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  P.run(F, Ctx);
  return SR;
}

/// Runs a pass class on \p F and returns one of its counters — the
/// replacement for the removed bool/count-returning free functions
/// (e.g. runPassStat<DCEPass>(F, "changed")).
template <typename PassT>
uint64_t runPassStat(Function &F, const char *Counter, PassT P = PassT()) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  P.run(F, Ctx);
  return SR.get(PassT::name(), Counter);
}

/// Runs \p Body on a new thread with a stack of \p Bytes and waits for it.
inline void runOnStack(size_t Bytes, std::function<void()> Body) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, Bytes), 0);
  pthread_t Thread;
  auto Run = [](void *P) -> void * {
    (*static_cast<std::function<void()> *>(P))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&Thread, &Attr, Run, &Body), 0);
  pthread_join(Thread, nullptr);
  pthread_attr_destroy(&Attr);
}

/// Observable outcome of one run.
struct Outcome {
  ExecResult Exec;
  uint64_t MemHash = 0;
};

/// Compiles \p Source, optimizes \p FnName at \p Level, and interprets it
/// on \p Args with a fresh memory image sized for the routine's local
/// arrays (plus \p ExtraMem bytes). Fails the current test on any error.
inline Outcome compileOptimizeRun(const std::string &Source,
                                  const std::string &FnName,
                                  const std::vector<RtValue> &Args,
                                  OptLevel Level, size_t ExtraMem = 0,
                                  PipelineStats *StatsOut = nullptr) {
  Outcome O;
  LowerResult LR = compileMiniFortran(Source, namingFor(Level));
  EXPECT_TRUE(LR.ok()) << LR.Error;
  if (!LR.ok())
    return O;
  Function *F = LR.M->find(FnName);
  EXPECT_NE(F, nullptr) << "no function " << FnName;
  if (!F)
    return O;

  std::vector<std::string> Errors = verifyFunction(*F, SSAMode::NoSSA);
  EXPECT_TRUE(Errors.empty()) << "frontend produced invalid IR: "
                              << Errors.front() << "\n" << printFunction(*F);

  PipelineOptions PO;
  PO.Level = Level;
  PipelineStats Stats = optimizeFunction(*F, PO);
  if (StatsOut)
    *StatsOut = Stats;

  size_t LocalBytes = 0;
  for (const RoutineInfo &RI : LR.Routines)
    if (RI.Name == FnName)
      LocalBytes = RI.LocalMemBytes;
  MemoryImage Mem(LocalBytes + ExtraMem);
  O.Exec = interpret(*F, Args, Mem);
  EXPECT_TRUE(O.Exec.ok()) << "trap: " << O.Exec.TrapReason << "\n"
                           << printFunction(*F);
  O.MemHash = Mem.hash();
  return O;
}

/// Asserts that every optimization level computes the same result as the
/// unoptimized program (bit-exact except for the reassociating levels on
/// F64 results, which are compared with a relative tolerance — FORTRAN
/// permits the reordering).
inline void expectAllLevelsAgree(const std::string &Source,
                                 const std::string &FnName,
                                 const std::vector<RtValue> &Args,
                                 size_t ExtraMem = 0) {
  Outcome Ref = compileOptimizeRun(Source, FnName, Args, OptLevel::None,
                                   ExtraMem);
  for (OptLevel L : {OptLevel::Baseline, OptLevel::Partial,
                     OptLevel::Reassociation, OptLevel::Distribution}) {
    Outcome Got = compileOptimizeRun(Source, FnName, Args, L, ExtraMem);
    if (!Ref.Exec.ok() || !Got.Exec.ok())
      return;
    bool Reassoc =
        L == OptLevel::Reassociation || L == OptLevel::Distribution;
    ASSERT_EQ(Ref.Exec.HasReturn, Got.Exec.HasReturn) << optLevelName(L);
    if (Ref.Exec.HasReturn) {
      ASSERT_EQ(Ref.Exec.ReturnValue.Ty, Got.Exec.ReturnValue.Ty)
          << optLevelName(L);
      if (Ref.Exec.ReturnValue.isI()) {
        EXPECT_EQ(Ref.Exec.ReturnValue.I, Got.Exec.ReturnValue.I)
            << optLevelName(L);
      } else if (Reassoc) {
        EXPECT_NEAR(Ref.Exec.ReturnValue.F, Got.Exec.ReturnValue.F,
                    1e-9 * (1.0 + std::abs(Ref.Exec.ReturnValue.F)))
            << optLevelName(L);
      } else {
        EXPECT_EQ(Ref.Exec.ReturnValue.F, Got.Exec.ReturnValue.F)
            << optLevelName(L);
      }
    }
    if (!Reassoc) {
      EXPECT_EQ(Ref.MemHash, Got.MemHash) << optLevelName(L);
    }
    // An optimization level must never slow the program down on these
    // deterministic runs... but the paper documents occasional degradation
    // (§4.2), so only check that the dynamic count stayed in the ballpark.
    EXPECT_LE(Got.Exec.DynOps, Ref.Exec.DynOps * 2 + 64) << optLevelName(L);
  }
}

} // namespace epre::test

#endif // EPRE_TESTS_TESTUTIL_H
