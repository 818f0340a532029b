//===- ssa/SSA.h - SSA construction and destruction --------------*- C++ -*-===//
///
/// \file
/// Pruned SSA construction with copy folding, and SSA destruction.
///
/// Construction follows Cytron et al. with liveness-based pruning (only
/// variables live into a join block receive phi nodes there), and — as in
/// Briggs & Cooper §3.1 — folds copies during renaming: a copy `x <- y`
/// defines no new SSA name; the current name of `y` simply becomes the
/// current name of `x`, so source copies vanish into the phi nodes.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SSA_SSA_H
#define EPRE_SSA_SSA_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

#include <vector>

namespace epre {

/// Side table produced by SSA construction.
struct SSAInfo {
  /// For each post-construction register: the pre-construction register it
  /// is a version of, or NoReg for registers that predate construction or
  /// were not renamed.
  std::vector<Reg> OriginalOf;

  /// Number of phi nodes inserted.
  unsigned NumPhis = 0;
  /// Number of copies folded away during renaming.
  unsigned NumCopiesFolded = 0;
};

/// Options for SSA construction.
struct SSAOptions {
  /// Fold copies into phis during renaming (remove all Copy instructions).
  bool FoldCopies = true;
};

/// SSA construction behind the unified pass-entry API. Rewrites \p F into
/// SSA form in place: every register definition gets a fresh name, uses
/// are rewired, phis are inserted at (pruned) iterated dominance
/// frontiers. Variables that may be used before definition are
/// zero-initialized in the entry block so the result is well defined.
/// Counters: ssa.build.phis, ssa.build.copies_folded.
class SSABuildPass {
public:
  static constexpr const char *name() { return "ssa.build"; }
  explicit SSABuildPass(const SSAOptions &Opts = {}) : Opts(Opts) {}
  void run(Function &F, PassContext &Ctx);

  /// Side table of the most recent run.
  const SSAInfo &lastInfo() const { return Last; }

private:
  SSAOptions Opts;
  SSAInfo Last;
};

/// SSA destruction behind the unified pass-entry API. Replaces all phi
/// nodes with copies in predecessor blocks, using parallel copy
/// sequencing. Requires critical edges to have been split (asserts). The
/// function is no longer in SSA form afterwards.
class SSADestroyPass {
public:
  static constexpr const char *name() { return "ssa.destroy"; }
  void run(Function &F, PassContext &Ctx);
};

} // namespace epre

#endif // EPRE_SSA_SSA_H
