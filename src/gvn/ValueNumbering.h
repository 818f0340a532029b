//===- gvn/ValueNumbering.h - Partition-based GVN (§3.2) ---------*- C++ -*-===//
///
/// \file
/// Alpern–Wegman–Zadeck partition-based global value numbering plus the
/// renaming pass that encodes the discovered congruences into the name
/// space (Briggs & Cooper §3.2).
///
/// The optimistic algorithm starts from the assumption that all values
/// computed by the same operator are equal and refines the partition until
/// the program's statements no longer disprove any equivalence. Phi nodes
/// are congruent only within the same block; loads and parameters are
/// incongruent to everything else ("the simplest variation described by
/// Alpern, Wegman, and Zadeck").
///
/// After renaming: every lexically identical expression has the same name;
/// variable names (phi targets) are defined only by copies. This is exactly
/// the name space PRE requires (§2.2), established *inside* the optimizer,
/// independent of the front end's choices.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_GVN_VALUENUMBERING_H
#define EPRE_GVN_VALUENUMBERING_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

struct GVNStats {
  unsigned Registers = 0;     ///< registers participating
  unsigned Classes = 0;       ///< congruence classes found
  unsigned MergedDefs = 0;    ///< definitions renamed to another name
};

/// The complete §3.2 phase behind the unified pass-entry API, on non-SSA
/// code: (re)builds pruned SSA with copy folding, computes the AWZ
/// partition, renames every value to its class representative, and leaves
/// SSA again via predecessor copies. "The names are the only things
/// changed during this phase; no instructions are added, deleted, or
/// moved" — except the phi/copy shuffling inherent in entering and
/// leaving SSA.
///
/// Counters: gvn.registers, gvn.classes, gvn.merged_defs.
/// Remarks: Merge per definition renamed to its congruence class rep.
class GVNPass {
public:
  static constexpr const char *name() { return "gvn"; }
  void run(Function &F, PassContext &Ctx);

  /// Stats of the most recent run.
  const GVNStats &lastStats() const { return Last; }

  /// Deterministic work count of the most recent run: the signature words
  /// hashed over all refinement rounds plus the instructions renaming
  /// visited. The complexity ratchet (tests/pipeline_test.cpp) bounds its
  /// growth; it is not a registry counter.
  uint64_t lastWork() const { return LastWork; }

private:
  GVNStats Last;
  uint64_t LastWork = 0;
};

/// The partition+rename core, for code already in SSA form. Exposed for
/// unit tests. Phis are deduplicated after renaming; the function stays in
/// SSA-with-shared-names form (destroySSA must follow before other passes).
GVNStats valueNumberSSA(Function &F);

} // namespace epre

#endif // EPRE_GVN_VALUENUMBERING_H
