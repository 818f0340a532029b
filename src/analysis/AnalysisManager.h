//===- analysis/AnalysisManager.h - Cached function analyses ----*- C++ -*-===//
///
/// \file
/// FunctionAnalysisManager caches the structural analyses every pass used to
/// recompute from scratch (CFG, dominator tree, loop info, the joined
/// profile), keyed on the Function's monotonic IR version counter.
///
/// Protocol:
///   1. A pass takes `FunctionAnalysisManager &AM` and reads analyses through
///      the accessors (`AM.cfg()`, `AM.domTree()`, ...). A cached result is
///      returned when its version stamp matches `F.version()`; otherwise it
///      is recomputed and re-stamped.
///   2. Every structural mutation bumps `F.version()` — Function bumps it for
///      block creation/removal and register allocation, and passes that edit
///      instructions in place (terminator rewrites) call `F.bumpVersion()`.
///   3. When a pass finishes it calls `AM.finishPass(PA)` with the set of
///      analyses it preserved. Preserved analyses are re-stamped to the
///      current version (so e.g. a peephole's register allocations don't
///      spuriously invalidate the CFG); everything else is dropped.
///
/// References returned by the accessors are valid until the next mutation or
/// accessor call that forces a recompute: re-acquire after mutating.
///
/// The cache can be disabled (every accessor recomputes) for differential
/// testing: pass Disabled=true, or build with -DEPRE_DISABLE_ANALYSIS_CACHE
/// to flip the default. Results must be byte-identical either way — the
/// analyses are deterministic functions of the IR.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_ANALYSISMANAGER_H
#define EPRE_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/ProfileInfo.h"
#include "ir/Function.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace epre {

/// The analyses the manager knows how to cache.
enum class AnalysisID : unsigned {
  CFGAnalysis = 0,
  DomTreeAnalysis,
  LoopAnalysis,
  ProfileAnalysis,
};
inline constexpr unsigned NumAnalysisIDs = 4;

/// The set of analyses a pass left intact. Derived analyses are only
/// considered preserved when their inputs are too (normalized on use):
/// DomTree and the profile join require CFG, Loops requires DomTree.
class PreservedAnalyses {
public:
  /// Nothing survives: the pass restructured the CFG (or declared nothing).
  static PreservedAnalyses none() { return PreservedAnalyses(0); }

  /// Everything survives: the pass did not change the IR in a way any cached
  /// analysis can observe.
  static PreservedAnalyses all() {
    return PreservedAnalyses((1u << NumAnalysisIDs) - 1);
  }

  /// The pass kept the block graph intact (no blocks or edges added or
  /// removed) but may have rewritten instructions: the pure graph analyses
  /// (CFG, dominators, loops) and the label-joined profile mapping survive.
  static PreservedAnalyses cfgShape() {
    return none()
        .preserve(AnalysisID::CFGAnalysis)
        .preserve(AnalysisID::DomTreeAnalysis)
        .preserve(AnalysisID::LoopAnalysis)
        .preserve(AnalysisID::ProfileAnalysis);
  }

  PreservedAnalyses &preserve(AnalysisID ID) {
    Mask |= bit(ID);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisID ID) {
    Mask &= ~bit(ID);
    return *this;
  }

  bool isPreserved(AnalysisID ID) const { return Mask & bit(ID); }

  /// Applies the dependency rules so a derived analysis never claims to
  /// outlive its input.
  PreservedAnalyses normalized() const {
    PreservedAnalyses PA = *this;
    if (!PA.isPreserved(AnalysisID::CFGAnalysis)) {
      PA.abandon(AnalysisID::DomTreeAnalysis);
      PA.abandon(AnalysisID::ProfileAnalysis);
    }
    if (!PA.isPreserved(AnalysisID::DomTreeAnalysis))
      PA.abandon(AnalysisID::LoopAnalysis);
    return PA;
  }

private:
  explicit PreservedAnalyses(unsigned Mask) : Mask(Mask) {}
  static unsigned bit(AnalysisID ID) { return 1u << unsigned(ID); }
  unsigned Mask;
};

/// Per-function cache of CFG, DominatorTree, LoopInfo, and ProfileInfo.
class FunctionAnalysisManager {
public:
  struct Stats {
    std::array<uint64_t, NumAnalysisIDs> Computes = {};
    std::array<uint64_t, NumAnalysisIDs> Hits = {};
    /// Cached values actually dropped by finishPass (not merely re-stamped
    /// and not already-empty slots): the cache's invalidation events.
    std::array<uint64_t, NumAnalysisIDs> Invalidations = {};
    uint64_t computes(AnalysisID ID) const { return Computes[unsigned(ID)]; }
    uint64_t hits(AnalysisID ID) const { return Hits[unsigned(ID)]; }
    uint64_t invalidations(AnalysisID ID) const {
      return Invalidations[unsigned(ID)];
    }
  };

  explicit FunctionAnalysisManager(Function &F,
                                   bool Disabled = defaultDisabled())
      : F(F), Disabled(Disabled) {}

  FunctionAnalysisManager(const FunctionAnalysisManager &) = delete;
  FunctionAnalysisManager &operator=(const FunctionAnalysisManager &) = delete;

  Function &function() { return F; }
  bool cachingDisabled() const { return Disabled; }

  /// Compiled-in default for the disable flag; flipped by building with
  /// -DEPRE_DISABLE_ANALYSIS_CACHE (differential testing).
  static constexpr bool defaultDisabled() {
#ifdef EPRE_DISABLE_ANALYSIS_CACHE
    return true;
#else
    return false;
#endif
  }

  const CFG &cfg() {
    if (fresh(AnalysisID::CFGAnalysis, G.has_value()))
      return *G;
    G.emplace(CFG::compute(F));
    stamp(AnalysisID::CFGAnalysis);
    return *G;
  }

  const DominatorTree &domTree() {
    const CFG &Graph = cfg(); // may recompute, moving the stamp we check next
    if (fresh(AnalysisID::DomTreeAnalysis, DT.has_value()))
      return *DT;
    DT.emplace(DominatorTree::compute(F, Graph));
    stamp(AnalysisID::DomTreeAnalysis);
    return *DT;
  }

  const LoopInfo &loopInfo() {
    const DominatorTree &Dom = domTree();
    if (fresh(AnalysisID::LoopAnalysis, LI.has_value()))
      return *LI;
    LI.emplace(LoopInfo::compute(F, *G, Dom));
    stamp(AnalysisID::LoopAnalysis);
    return *LI;
  }

  /// Attaches the dynamic profile this function's profile-guided passes
  /// should consume (nullptr detaches). The source outlives the manager;
  /// the mapped ProfileInfo is invalidated so the next profileInfo() call
  /// joins the new source.
  void setProfileSource(const FunctionProfile *Src) {
    ProfileSrc = Src;
    drop(AnalysisID::ProfileAnalysis);
  }

  const FunctionProfile *profileSource() const { return ProfileSrc; }

  /// The attached profile joined onto the current blocks/edges by label.
  /// Without a source every weight is 0 and attached() is false.
  const ProfileInfo &profileInfo() {
    const CFG &Graph = cfg();
    if (fresh(AnalysisID::ProfileAnalysis, Prof.has_value()))
      return *Prof;
    Prof.emplace(ProfileInfo::compute(F, Graph, ProfileSrc));
    stamp(AnalysisID::ProfileAnalysis);
    return *Prof;
  }

  /// A pass just finished having preserved \p PA: re-stamp what survived to
  /// the current IR version and drop the rest.
  void finishPass(PreservedAnalyses PA) {
    PA = PA.normalized();
    for (unsigned I = 0; I != NumAnalysisIDs; ++I) {
      AnalysisID ID = AnalysisID(I);
      if (PA.isPreserved(ID))
        Stamp[I] = F.version();
      else
        drop(ID);
    }
  }

  void invalidateAll() { finishPass(PreservedAnalyses::none()); }

  const Stats &stats() const { return S; }

private:
  /// True when the cache may serve the stored value: caching is on, the slot
  /// holds a value, and the value's stamp matches the IR version.
  bool fresh(AnalysisID ID, bool HasValue) {
    if (Disabled || !HasValue || Stamp[unsigned(ID)] != F.version()) {
      ++S.Computes[unsigned(ID)];
      return false;
    }
    ++S.Hits[unsigned(ID)];
    return true;
  }

  void stamp(AnalysisID ID) { Stamp[unsigned(ID)] = F.version(); }

  void drop(AnalysisID ID) {
    Stamp[unsigned(ID)] = StaleStamp;
    switch (ID) {
    case AnalysisID::CFGAnalysis:
      if (G)
        ++S.Invalidations[unsigned(ID)];
      G.reset();
      break;
    case AnalysisID::DomTreeAnalysis:
      if (DT)
        ++S.Invalidations[unsigned(ID)];
      DT.reset();
      break;
    case AnalysisID::LoopAnalysis:
      if (LI)
        ++S.Invalidations[unsigned(ID)];
      LI.reset();
      break;
    case AnalysisID::ProfileAnalysis:
      if (Prof)
        ++S.Invalidations[unsigned(ID)];
      Prof.reset();
      break;
    }
  }

  static constexpr uint64_t StaleStamp = ~uint64_t(0);

  Function &F;
  bool Disabled;
  const FunctionProfile *ProfileSrc = nullptr;
  std::optional<CFG> G;
  std::optional<DominatorTree> DT;
  std::optional<LoopInfo> LI;
  std::optional<ProfileInfo> Prof;
  std::array<uint64_t, NumAnalysisIDs> Stamp = {StaleStamp, StaleStamp,
                                                StaleStamp, StaleStamp};
  Stats S;
};

/// Short name of an analysis for stats/debug output.
const char *analysisName(AnalysisID ID);

/// Formats "cfg=<hits>/<lookups> domtree=..." for logging.
std::string formatAnalysisStats(const FunctionAnalysisManager::Stats &S);

} // namespace epre

#endif // EPRE_ANALYSIS_ANALYSISMANAGER_H
