//===- analysis/Liveness.h - Global register liveness ------------*- C++ -*-===//
///
/// \file
/// Sparse per-variable liveness over registers. Phi-aware: a phi's operands
/// are uses at the end of the corresponding predecessor, and a phi's result
/// is defined at the top of its block.
///
/// Each register is solved on its own by path exploration (after Brandner
/// et al., "Computing Liveness Sets for SSA-Form Programs", 2011): walk
/// backward from every upward-exposed use, and from the end of the
/// predecessor that feeds each phi use, until a block that defines the
/// register. The walk needs no SSA form. Its cost is proportional to the
/// total size of the live ranges, not blocks x registers, and the result is
/// stored as one sorted register list per block.
///
/// Only blocks reachable from the entry take part; unreachable blocks have
/// empty sets. Used for pruned SSA construction (live-in sets), SSA
/// destruction, forward propagation, name localization, conditional
/// constant propagation (lattice row sizing), dead code elimination and
/// copy coalescing (interference). tests/liveness_test.cpp checks every set
/// bit for bit against the dense bit-vector formulation.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_LIVENESS_H
#define EPRE_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"

#include <cstdint>
#include <span>
#include <vector>

namespace epre {

/// Per-block live-in/live-out register lists.
class Liveness {
public:
  /// Registers in ascending order.
  using RegList = std::span<const Reg>;

  static Liveness compute(const Function &F, const CFG &G);

  /// Registers live on entry to \p B (phi results of B excluded; a phi's
  /// result becomes live at the phi itself).
  RegList liveIn(BlockId B) const { return list(InBegin, InRegs, B); }

  /// Registers live on exit from \p B (includes values flowing into
  /// successors' phis from B).
  RegList liveOut(BlockId B) const { return list(OutBegin, OutRegs, B); }

  /// True if register \p R is live on entry to \p B.
  bool isLiveIn(Reg R, BlockId B) const;

  /// Walk steps of the computation (blocks marked live plus predecessor
  /// edges followed): the deterministic cost the asking pass reports.
  uint64_t work() const { return Work; }

private:
  static RegList list(const std::vector<uint32_t> &Begin,
                      const std::vector<Reg> &Regs, BlockId B) {
    return RegList(Regs.data() + Begin[B], Begin[B + 1] - Begin[B]);
  }

  std::vector<uint32_t> InBegin, OutBegin; ///< per block, plus one sentinel
  std::vector<Reg> InRegs, OutRegs;
  uint64_t Work = 0;
};

} // namespace epre

#endif // EPRE_ANALYSIS_LIVENESS_H
