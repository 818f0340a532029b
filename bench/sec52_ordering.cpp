//===- bench/sec52_ordering.cpp - §5.2: pass-ordering interactions --------===//
///
/// §5.2: "many compilers replace an integer multiply with one constant
/// argument by a series of shifts ... Since shifts are not associative,
/// this optimization should not be performed until after global
/// reassociation. For example, if ((x*y)*2)*z is prematurely converted
/// into ((x*y)<<1)*z, we lose the opportunity to group ... This effect is
/// measurable; indeed, we have accidentally measured it more than once."
///
/// We measure it on purpose: the same program run through (a) the correct
/// pipeline (strength reduction inside the post-reassociation peephole)
/// and (b) a deliberately wrong ordering that strength-reduces first.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "opt/Peephole.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

using namespace epre;

namespace {

// j and m are loop invariant, i varies: after rank sorting, ((2*j)*m) is
// hoistable and the loop keeps a single multiply. If the multiply-by-two
// is turned into a shift first, the chain can no longer be flattened and
// three operations stay inside the loop.
const char *Src = R"(
function grp(n, j, m)
  integer n, j, m
  ksum = 0
  do i = 1, n
    k = j * i * 2 * m
    ksum = ksum + k
  end do
  return ksum
end
)";


/// Runs a pass class on \p F with a quiet context, returning the pass
/// object (for lastStats()).
template <typename PassT> PassT runPass(Function &F, PassT P = PassT()) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  P.run(F, Ctx);
  return P;
}

uint64_t measure(bool PrematureStrengthReduction) {
  LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
  if (!LR.ok()) {
    std::printf("compile error: %s\n", LR.Error.c_str());
    return 0;
  }
  Function &F = *LR.M->find("grp");
  if (PrematureStrengthReduction) {
    // The §5.2 mistake: convert constant multiplies to shifts *before*
    // reassociation gets a chance to group the constants.
    runPass(F, PeepholePass());
  }
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  optimizeFunction(F, PO);
  MemoryImage Mem(0);
  ExecResult R = interpret(
      F, {RtValue::ofI(200), RtValue::ofI(3), RtValue::ofI(5)}, Mem);
  if (R.Trapped) {
    std::printf("TRAP: %s\n", R.TrapReason.c_str());
    return 0;
  }
  return R.DynOps;
}

} // namespace

int main() {
  std::printf("§5.2: integer multiply -> shift conversion ordered before "
              "vs after reassociation\n\n");
  uint64_t Correct = measure(false);
  uint64_t Premature = measure(true);
  std::printf("correct order   (reassociate, then strength-reduce): %llu "
              "dynamic ops\n",
              (unsigned long long)Correct);
  std::printf("premature order (strength-reduce, then reassociate): %llu "
              "dynamic ops\n",
              (unsigned long long)Premature);
  if (Premature > Correct)
    std::printf("\npremature conversion costs %.1f%% — shifts are not "
                "associative, so j*i*2*m cannot regroup to (2*j*m)*i (the effect "
                "the paper 'accidentally measured more than once').\n",
                100.0 * (double(Premature) - double(Correct)) /
                    double(Correct));
  else
    std::printf("\nno penalty measured on this input (regression?)\n");
  return Premature > Correct ? 0 : 1;
}
