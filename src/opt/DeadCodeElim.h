//===- opt/DeadCodeElim.h - Dead code elimination ----------------*- C++ -*-===//
///
/// \file
/// Liveness-driven dead code elimination: deletes pure instructions whose
/// results are never used, iterating with liveness recomputation until no
/// instruction can be removed (deleting one use chain exposes the next).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_OPT_DEADCODEELIM_H
#define EPRE_OPT_DEADCODEELIM_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

/// Dead code elimination behind the unified pass-entry API. Removes dead
/// pure instructions; branches, returns, and stores are always kept.
/// Preserves the CFG shape (only instructions are removed).
/// Counters: dce.removed, dce.changed.
class DCEPass {
public:
  static constexpr const char *name() { return "dce"; }
  void run(Function &F, PassContext &Ctx);

  /// Deterministic cost of the most recent run: instructions visited,
  /// live-set updates, and the liveness walks.
  uint64_t lastWork() const { return LastWork; }

private:
  uint64_t LastWork = 0;
};

} // namespace epre

#endif // EPRE_OPT_DEADCODEELIM_H
