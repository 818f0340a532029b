//===- opt/StrengthReduction.h - Loop strength reduction ---------*- C++ -*-===//
///
/// \file
/// The second pass the paper's optimizer was "currently missing" (§4.1):
/// strength reduction of induction-variable multiplications. §5.2 predicts
/// it composes with reassociation ("reassociation should let strength
/// reduction introduce fewer distinct induction variables, particularly in
/// code with complex subscripts"), and §6 discusses the Markstein et al.
/// loop-by-loop alternative. This implementation:
///
///  - works loop by loop on SSA form (innermost first);
///  - recognizes basic induction variables i = phi(i0, i ± c) with a
///    loop-invariant step;
///  - replaces loop multiplications j = i * k (k loop-invariant, integer)
///    by a new induction variable j' = phi(i0 * k, j' ± c*k), turning a
///    multiply per iteration into an add per iteration;
///  - leaves cleanup (dead original multiplies, copies) to DCE/coalescing.
///
/// Only integer candidates are reduced — the motivating case is the array
/// address arithmetic of §2.1, which is integer.
///
/// Note on the paper's metric: dynamic operation counts weigh a multiply
/// and an add equally, so this pass is roughly count-neutral there (its
/// benefit is per-operation cost). Making it count-positive would require
/// linear-function test replacement to retire the original induction
/// variable, which is unsafe under wrapping arithmetic without range
/// information — left, as in the paper, to future work.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_OPT_STRENGTHREDUCTION_H
#define EPRE_OPT_STRENGTHREDUCTION_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

struct SRStats {
  unsigned LoopsVisited = 0;
  unsigned BasicIVs = 0;
  unsigned Reduced = 0; ///< multiplications rewritten to additions
};

/// The full strength-reduction phase behind the unified pass-entry API:
/// on phi-free code, builds SSA (copies kept), reduces, leaves SSA, and
/// re-localizes expression names for PRE (§5.1). The SSA sandwich passes
/// open their own scopes, so timer reports show them nested under this
/// pass. Counters: strengthreduce.loops_visited, strengthreduce.basic_ivs,
/// strengthreduce.reduced.
class StrengthReductionPass {
public:
  static constexpr const char *name() { return "strengthreduce"; }
  void run(Function &F, PassContext &Ctx);

  /// Stats of the most recent run (for drivers that branch on them).
  const SRStats &lastStats() const { return Last; }

private:
  SRStats Last;
};

} // namespace epre

#endif // EPRE_OPT_STRENGTHREDUCTION_H
