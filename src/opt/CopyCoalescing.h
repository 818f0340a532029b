//===- opt/CopyCoalescing.h - Chaitin-style copy coalescing ------*- C++ -*-===//
///
/// \file
/// The coalescing phase of a Chaitin-style register allocator, as a
/// standalone pass over virtual registers: a copy `x <- y` is removed by
/// merging x and y into one register when their live ranges do not
/// interfere. The paper relies on this to clean up the copies inserted by
/// SSA destruction / forward propagation (Figures 9 -> 10).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_OPT_COPYCOALESCING_H
#define EPRE_OPT_COPYCOALESCING_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

/// Copy coalescing behind the unified pass-entry API. Coalesces
/// non-interfering copy-related registers and deletes the copies, in
/// rounds until no copy can be removed. Must run on phi-free (non-SSA)
/// code. Preserves the CFG shape (registers renamed, copies removed).
/// Counters: coalesce.copies_removed.
class CopyCoalescingPass {
public:
  static constexpr const char *name() { return "coalesce"; }
  void run(Function &F, PassContext &Ctx);

  /// Deterministic cost of the most recent run, over all rounds: live-set
  /// members scanned, interference inserts, and the liveness walks.
  uint64_t lastWork() const { return LastWork; }

private:
  uint64_t LastWork = 0;
};

} // namespace epre

#endif // EPRE_OPT_COPYCOALESCING_H
