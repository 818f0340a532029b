//===- opt/SimplifyCFG.h - CFG cleanup ---------------------------*- C++ -*-===//
///
/// \file
/// Control-flow cleanups: dead block removal, branch canonicalization,
/// forwarding-block threading, straight-line block merging. This implements
/// the paper's "final pass to eliminate empty basic blocks" (plus the usual
/// companions that make the other passes' output tidy).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_OPT_SIMPLIFYCFG_H
#define EPRE_OPT_SIMPLIFYCFG_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

/// CFG simplification behind the unified pass-entry API. Runs the cleanup
/// rules to a fixpoint:
///  - cbr with a constant condition defined by a loadi in the same block
///    becomes br;
///  - blocks unreachable from entry are erased (phi inputs cleaned up);
///  - single-predecessor phis become copies;
///  - a block containing only `br ^t` is bypassed when target phis permit;
///    a cbr this leaves naming ^t twice becomes br;
///  - a block whose single successor has it as its single predecessor is
///    merged with that successor.
/// Counters: simplifycfg.changed.
class SimplifyCFGPass {
public:
  static constexpr const char *name() { return "simplifycfg"; }
  void run(Function &F, PassContext &Ctx);
};

/// Unreachable-block removal only, as its own schedulable pass.
/// Counters: unreachable-elim.changed.
class UnreachableBlockElimPass {
public:
  static constexpr const char *name() { return "unreachable-elim"; }
  void run(Function &F, PassContext &Ctx);
};

} // namespace epre

#endif // EPRE_OPT_SIMPLIFYCFG_H
