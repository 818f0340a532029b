//===- bench/fig2_10_running_example.cpp - Figures 2..10 of the paper -----===//
///
/// Walks the paper's running example (Figure 2's FUNCTION FOO) through every
/// phase, printing the IR after each — our analogues of Figures 3 through
/// 10 — and finishes with the dynamic-count comparison backing the paper's
/// claim that the transformations "reduced the length of the loop by 1
/// operation without increasing the length of any path".
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "frontend/Lower.h"
#include "gvn/ValueNumbering.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/SimplifyCFG.h"
#include "pipeline/Pipeline.h"
#include "pre/PRE.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"

#include <cstdio>

using namespace epre;

namespace {

/// Runs a pass class on \p F with a quiet context, returning the pass
/// object (for lastStats()).
template <typename PassT> PassT runPass(Function &F, PassT P = PassT()) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  P.run(F, Ctx);
  return P;
}

/// Same, returning the counters the pass published.
template <typename PassT> PipelineStats runPassStats(Function &F, PassT P) {
  PipelineStats S;
  PassContext Ctx(&S.Registry);
  P.run(F, Ctx);
  return S;
}

const char *FooSource = R"(
function foo(y, z)
  s = 0
  x = y + z
  do i = x, 100
    s = i + s + x
  end do
  return s
end
)";

uint64_t run(Function &F) {
  MemoryImage Mem(0);
  ExecResult R = interpret(F, {RtValue::ofF(1.0), RtValue::ofF(2.0)}, Mem);
  if (R.Trapped) {
    std::printf("  TRAP: %s\n", R.TrapReason.c_str());
    return 0;
  }
  std::printf("  foo(1.0, 2.0) = %g in %llu dynamic ops\n",
              R.ReturnValue.F, (unsigned long long)R.DynOps);
  return R.DynOps;
}

void stage(const char *Title, const Function &F) {
  std::printf("=== %s ===\n%s\n", Title, printFunction(F).c_str());
}

} // namespace

int main() {
  std::printf("Figure 2: source code\n%s\n", FooSource);

  // Figure 3: the naive front end's three-address code.
  LowerResult LR = compileMiniFortran(FooSource, NamingMode::Naive);
  if (!LR.ok()) {
    std::printf("compile error: %s\n", LR.Error.c_str());
    return 1;
  }
  Function &F = *LR.M->find("foo");
  stage("Figure 3: intermediate form (naive front end)", F);
  uint64_t OpsBefore = run(F);

  // Figure 4: pruned SSA with copies folded into the phis.
  runPass(F, SSABuildPass());
  stage("Figure 4: pruned SSA form", F);

  // Ranks (the text below Figure 4 discusses them).
  CFG G = CFG::compute(F);
  RankMap Ranks = RankMap::compute(F, G);
  std::printf("ranks: ");
  for (Reg R = 1; R < F.numRegs(); ++R)
    if (Ranks.hasRank(R))
      std::printf("r%u=%u ", R, Ranks.rank(R));
  std::printf("\n\n");

  // Figures 5+6: copies inserted at predecessors, expressions propagated
  // forward to their uses (one combined step in this implementation).
  PipelineStats FP = runPassStats(F, ForwardPropPass(Ranks));
  stage("Figures 5-6: after inserting copies and forward propagation", F);
  std::printf("  static ops %llu -> %llu (x%.3f)\n\n",
              (unsigned long long)FP.get("fwdprop", "ops_before"),
              (unsigned long long)FP.get("fwdprop", "ops_after"),
              FP.fwdExpansion());

  // Figure 7: reassociation (rank-sorted operand order).
  ReassociateOptions RO;
  runPass(F, NegNormPass(Ranks, RO));
  runPass(F, ReassociatePass(Ranks, RO));
  stage("Figure 7: after reassociation", F);

  // Figure 8: global value numbering + renaming.
  GVNStats GS = runPass(F, GVNPass()).lastStats();
  stage("Figure 8: after value numbering", F);
  std::printf("  %u registers in %u congruence classes; %u defs renamed\n\n",
              GS.Registers, GS.Classes, GS.MergedDefs);

  // Figure 9: partial redundancy elimination.
  PREStats Total{};
  for (int I = 0; I < 8; ++I) {
    PREStats S = runPass(F, PREPass()).lastStats();
    Total.Inserted += S.Inserted;
    Total.Deleted += S.Deleted;
    if (S.Inserted == 0 && S.Deleted == 0)
      break;
  }
  stage("Figure 9: after partial redundancy elimination", F);
  std::printf("  PRE inserted %u, deleted %u computations\n\n",
              Total.Inserted, Total.Deleted);

  // Figure 10: coalescing removes the copies.
  runPass(F, DCEPass());
  unsigned Coalesced =
      unsigned(runPassStats(F, CopyCoalescingPass()).copiesCoalesced());
  runPass(F, DCEPass());
  runPass(F, SimplifyCFGPass());
  stage("Figure 10: after coalescing", F);
  std::printf("  coalescing removed %u copies\n", Coalesced);
  uint64_t OpsAfter = run(F);

  std::printf("\ndynamic operations: %llu (naive) -> %llu (optimized)\n",
              (unsigned long long)OpsBefore, (unsigned long long)OpsAfter);
  std::printf("the paper's claim holds: %s\n",
              OpsAfter < OpsBefore ? "the loop got shorter"
                                   : "NO IMPROVEMENT (regression!)");
  return OpsAfter < OpsBefore ? 0 : 1;
}
