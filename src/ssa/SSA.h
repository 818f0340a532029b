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
#include "ssa/ParallelCopy.h"

#include <functional>
#include <span>
#include <vector>

namespace epre {

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
/// Each block's phis enter it in one insertion, ordered by the variable
/// they stand for, highest first.
/// Counters: ssa.build.phis, ssa.build.copies_folded.
class SSABuildPass {
public:
  static constexpr const char *name() { return "ssa.build"; }
  explicit SSABuildPass(const SSAOptions &Opts = {}) : Opts(Opts) {}
  void run(Function &F, PassContext &Ctx);

  /// Deterministic cost of the most recent run: dominance-frontier edges
  /// visited, instructions moved when phis enter a block, and operands
  /// renamed.
  uint64_t lastWork() const { return LastWork; }

private:
  SSAOptions Opts;
  uint64_t LastWork = 0;
};

/// The copies a predecessor owes one phi block when SSA form is left.
struct EdgeCopies {
  BlockId Succ = InvalidBlock; ///< the phi block
  /// Forwarding block holding the copies, or InvalidBlock when they sit
  /// inline at the end of the predecessor.
  BlockId CopyBlock = InvalidBlock;
  /// (phi destination, phi input) pairs, in phi order.
  std::vector<PendingCopy> Items;
};

/// Where the copies that replace phi nodes go: Briggs & Cooper §3.1, the
/// paper's Figure 5 shape. Copies for single-successor predecessors and
/// loop back edges sit inline at the end of the predecessor (keeping a loop
/// body in one block); the other entering edges are split, "if necessary",
/// and their copies go into the forwarding block. SSA destruction and
/// forward propagation both leave SSA form through this placement.
class PhiCopyPlacement {
public:
  /// Appends to the list the registers that a register live into a block
  /// stands for there: forward propagation re-materializes a live-in
  /// expression from its tree leaves, so those are what the block needs.
  using ExpandFn = std::function<void(Reg, std::vector<Reg> &)>;

  /// Groups every phi's inputs by predecessor, decides each group's place,
  /// erases the phis and splits the edges that need a forwarding block. A
  /// back-edge group stays inline only if none of its destinations is
  /// needed on entry to another successor of the predecessor: live there,
  /// or with \p Expand, one of the registers a live-in register expands to.
  explicit PhiCopyPlacement(Function &F, ExpandFn Expand = nullptr);

  /// The groups predecessor \p P owes, in phi-block order; empty for a
  /// block with no phi successor and for the forwarding blocks.
  std::span<const EdgeCopies> edgesOf(BlockId P) const;

  /// The capture rule for predecessor \p P (a block of the function
  /// before the splits), given the value each item of edgesOf(P)
  /// (flattened in order) becomes at the end of P; empty \p Values means
  /// the items' own inputs. Returns the parallel copy to run
  /// at the end of P: the inline groups plus any captures. A forwarding
  /// block must not read a value the inline copies overwrite, nor an
  /// expression name across a block boundary (the §5.1 naming rule would
  /// make PRE drop the expression): it reads the inline variable that
  /// receives the same value, or else a temporary captured in parallel with
  /// the inline copies. Rewrites the forwarding groups' inputs to what
  /// their blocks read.
  std::vector<PendingCopy> capture(BlockId P,
                                   std::span<const Reg> Values = {});

  /// Sequences predecessor \p P's copies: \p AtPred (from capture) at the
  /// end of P, then each forwarding group in its block. Hands every copy to
  /// \p Emit with the block it belongs to, in order.
  void place(BlockId P, std::vector<PendingCopy> AtPred,
             const std::function<void(BlockId, Instruction &&)> &Emit);

private:
  Function &F;
  /// Per register at construction: defined by an expression.
  std::vector<uint8_t> IsExprName;
  /// Per predecessor block: the groups it owes.
  std::vector<std::vector<EdgeCopies>> ByPred;
};

/// SSA destruction behind the unified pass-entry API. Replaces all phi
/// nodes with copies placed by PhiCopyPlacement and sequenced as parallel
/// copies. The function is no longer in SSA form afterwards.
class SSADestroyPass {
public:
  static constexpr const char *name() { return "ssa.destroy"; }
  void run(Function &F, PassContext &Ctx);
};

} // namespace epre

#endif // EPRE_SSA_SSA_H
