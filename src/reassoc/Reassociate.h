//===- reassoc/Reassociate.h - Rank-sorted reassociation (§3.1) --*- C++ -*-===//
///
/// \file
/// The reassociation proper: after forward propagation has built per-use
/// expression trees,
///
///  1. `NegNormPass` rewrites x - y into x + (-y) (Frailey), making
///     subtraction chains associative;
///  2. `ReassociatePass` flattens each associative-operation tree and
///     re-emits it left-to-right with operands sorted by ascending rank, so
///     that low-rank (loop-invariant, constant) subexpressions cluster and
///     PRE can hoist maximal subexpressions maximal distances;
///  3. `distribute` (optional) multiplies a low-ranked multiplier through a
///     higher-ranked sum, rank group by rank group, exposing further
///     invariant products — followed by a re-sort.
///
/// FORTRAN permits reordering floating-point arithmetic; AllowFPReassoc
/// reflects that and defaults to on (results may differ in rounding).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_REASSOC_REASSOCIATE_H
#define EPRE_REASSOC_REASSOCIATE_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"
#include "reassoc/Ranks.h"

namespace epre {

struct ReassociateOptions {
  /// Exploit associativity/commutativity of F64 add/mul/min/max.
  bool AllowFPReassoc = true;
  /// Apply distribution of multiplication over addition (the paper's
  /// "distribution" optimization level).
  bool Distribute = false;
};

/// Negation normalization behind the unified pass-entry API: rewrites
/// x - y as x + (-y) throughout the function, extending the RankMap given
/// at construction for the negation temporaries. (Division is
/// deliberately not rewritten as multiplication by reciprocal, to avoid
/// precision problems — paper §3.1.)
/// Counters: negnorm.rewritten.
class NegNormPass {
public:
  static constexpr const char *name() { return "negnorm"; }
  NegNormPass(RankMap &Ranks, const ReassociateOptions &Opts)
      : Ranks(&Ranks), Opts(Opts) {}
  void run(Function &F, PassContext &Ctx);

private:
  RankMap *Ranks;
  ReassociateOptions Opts;
};

/// Rank-sorted reassociation behind the unified pass-entry API: sorts the
/// operands of associative operations by rank (and distributes
/// multiplication over addition when enabled).
/// Counters: reassoc.changed. Remarks: Reorder per rebuilt tree.
class ReassociatePass {
public:
  static constexpr const char *name() { return "reassoc"; }
  ReassociatePass(RankMap &Ranks, const ReassociateOptions &Opts)
      : Ranks(&Ranks), Opts(Opts) {}
  void run(Function &F, PassContext &Ctx);

private:
  RankMap *Ranks;
  ReassociateOptions Opts;
};

} // namespace epre

#endif // EPRE_REASSOC_REASSOCIATE_H
