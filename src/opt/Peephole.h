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

struct PeepholeOptions {
  /// Rewrite integer multiplies by powers of two into shifts. Per §5.2 of
  /// the paper this must happen only *after* global reassociation (shifts
  /// are not associative), which is where the pipeline places this pass.
  bool StrengthReduceMul = true;
};

/// Peephole simplification to a local fixpoint behind the unified
/// pass-entry API. Preserves the CFG shape (terminators are never
/// rewritten). Counters: peephole.changed.
class PeepholePass {
public:
  static constexpr const char *name() { return "peephole"; }
  explicit PeepholePass(const PeepholeOptions &Opts = {}) : Opts(Opts) {}
  void run(Function &F, PassContext &Ctx);

private:
  PeepholeOptions Opts;
};

} // namespace epre

#endif // EPRE_OPT_PEEPHOLE_H
