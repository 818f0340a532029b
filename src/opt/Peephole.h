//===- opt/Peephole.h - Global peephole optimization -------------*- C++ -*-===//
///
/// \file
/// Algebraic simplification of individual instructions using the defining
/// instructions of their operands ("global" in the sense that a unique,
/// dominating definition in another block may be consulted).
///
/// This is the pass the paper relies on to reconstruct `x - y` from the
/// `x + (-y)` form introduced by negation normalization, and to fold the
/// constant clusters that reassociation's rank-0 sorting creates.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_OPT_PEEPHOLE_H
#define EPRE_OPT_PEEPHOLE_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

/// Peephole simplification to a local fixpoint behind the unified
/// pass-entry API. Preserves the CFG shape (terminators are never
/// rewritten). Counters: peephole.changed.
class PeepholePass {
public:
  static constexpr const char *name() { return "peephole"; }
  void run(Function &F, PassContext &Ctx);

  /// Deterministic cost of the most recent run: instructions visited by
  /// the definition sweeps, by every simplification round, and by the
  /// placement of hoisted shift amounts.
  uint64_t lastWork() const { return LastWork; }

private:
  uint64_t LastWork = 0;
};

} // namespace epre

#endif // EPRE_OPT_PEEPHOLE_H
