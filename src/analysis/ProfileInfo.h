//===- analysis/ProfileInfo.h - Profile mapped onto the CFG ------*- C++ -*-===//
///
/// \file
/// The analysis that turns an externally supplied dynamic profile
/// (a label-keyed FunctionProfile collected by the interpreter, possibly
/// from a *different* compilation of the same source) into id-keyed block
/// and edge weights for the function as it looks right now.
///
/// Matching is by block label: labels are stable across printing/parsing
/// and across passes that do not create blocks, so a profile taken on the
/// unoptimized lowering maps cleanly onto the IR a profile-guided pass
/// sees. Blocks the profile does not know (e.g. created by edge splitting
/// after collection) get weight 0 — consumers must treat unknown as cold,
/// never as an error.
///
/// Speculative PRE computes the join on every application, from the
/// profile handed to PREPass, so each round sees the blocks earlier rounds
/// created as unknown (docs/speculative-pre.md).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_PROFILEINFO_H
#define EPRE_ANALYSIS_PROFILEINFO_H

#include "analysis/CFG.h"
#include "ir/Function.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace epre {

struct FunctionProfile;

/// Execution weights of the current function's blocks and CFG edges,
/// joined from a label-keyed FunctionProfile.
class ProfileInfo {
public:
  /// Maps \p Src (may be null: no profile for this function) onto the
  /// blocks and edges of \p F as described by \p G.
  static ProfileInfo compute(const Function &F, const CFG &G,
                             const FunctionProfile *Src);

  /// True when a source profile was attached and at least one of its
  /// blocks matched: weights are meaningful, not uniformly zero.
  bool attached() const { return Attached; }

  /// Times \p B was entered per the profile; 0 for unmatched blocks.
  uint64_t blockWeight(BlockId B) const {
    return B < BlockW.size() ? BlockW[B] : 0;
  }

  /// Times the edge From -> To was taken; 0 when the profile never saw it.
  /// An edge whose source block has a single successor inherits the block
  /// weight even if the profile predates the edge (label drift on the
  /// target cannot change how often a fallthrough executes).
  uint64_t edgeWeight(BlockId From, BlockId To) const;

  /// True when the profile recorded block \p B — its weight is a measured
  /// count (possibly 0 = certifiably cold). Unmatched blocks, typically
  /// created by CFG mutation after collection, are *unknown*: they report
  /// weight 0 but a profile-guided consumer must not treat them as cold
  /// (speculative PRE prices insertions in unknown regions as unbounded so
  /// placement there falls back to the safe LCM solution).
  bool blockKnown(BlockId B) const { return B < Known.size() && Known[B]; }

  /// True when edgeWeight(From, To) is a measured quantity: the source
  /// block is known and the edge is either its sole out-edge or leads to
  /// another known block (a recorded count, or certifiably never taken).
  bool edgeKnown(BlockId From, BlockId To) const {
    return blockKnown(From) &&
           ((From < SingleSucc.size() && SingleSucc[From]) || blockKnown(To));
  }

  /// Entry weight: how often the function was entered (the entry block's
  /// count).
  uint64_t entryWeight() const { return EntryW; }

  /// Sum of all matched block weights (0 means "everything is cold").
  uint64_t totalWeight() const { return TotalW; }

private:
  bool Attached = false;
  uint64_t EntryW = 0;
  uint64_t TotalW = 0;
  std::vector<uint64_t> BlockW;
  /// 1 for blocks whose label matched a profile entry.
  std::vector<uint8_t> Known;
  /// Out-edges with recorded counts, indexed by source block.
  std::vector<std::vector<std::pair<BlockId, uint64_t>>> EdgeW;
  /// Blocks with a single successor (edge weight = block weight fallback).
  std::vector<uint8_t> SingleSucc;
};

} // namespace epre

#endif // EPRE_ANALYSIS_PROFILEINFO_H
