//===- suite/Harness.h - Compile/optimize/measure one routine ----*- C++ -*-===//
///
/// \file
/// The measurement harness reproducing the paper's methodology: compile a
/// routine with the front-end naming discipline appropriate for the
/// optimization level, run the level's pass pipeline, execute on the
/// deterministic driver inputs, and report dynamic ILOC operation counts.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUITE_HARNESS_H
#define EPRE_SUITE_HARNESS_H

#include "frontend/Lower.h"
#include "instrument/Profile.h"
#include "pipeline/Pipeline.h"
#include "suite/Suite.h"

namespace epre {

/// Result of one measured execution.
struct Measurement {
  bool CompileOk = false;
  std::string CompileError;
  bool Trapped = false;
  std::string TrapReason;
  uint64_t DynOps = 0;
  uint64_t WeightedCost = 0;
  uint64_t MemHash = 0;
  bool HasReturn = false;
  RtValue ReturnValue;
  PipelineStats Stats;
  unsigned StaticOpsBefore = 0;
  unsigned StaticOpsAfter = 0;
  /// Set when measureRoutine ran with CollectProfile: the dynamic
  /// block/edge profile of the measured execution, tagged with the level.
  bool HasProfile = false;
  FunctionProfile Profile;

  bool ok() const { return CompileOk && !Trapped; }
};

/// The front-end naming mode each level is measured with: PRE alone needs
/// the §2.2 hash discipline; the reassociation levels construct their own
/// naming and take naive input; the baselines take naive input.
NamingMode namingForLevel(OptLevel L);

/// Compiles, optimizes and runs \p R at \p Level. With \p CollectProfile
/// the run is profiled (Measurement::Profile; ~10% slower execution).
/// When \p Overrides selects PREStrategy::Speculative without attaching a
/// ProfileIn document, the routine trains on itself: the unoptimized
/// lowering is interpreted once on the same driver inputs and its
/// block/edge profile becomes the pipeline's profile-guided input.
Measurement measureRoutine(const Routine &R, OptLevel Level,
                           const PipelineOptions *Overrides = nullptr,
                           bool CollectProfile = false);

/// One §4.2 degradation: a routine where a *higher* optimization level
/// executed more dynamic operations than a lower one (the paper found this
/// for PRE on two of its routines).
struct Degradation {
  std::string Routine;
  OptLevel Lower;
  OptLevel Higher;
  uint64_t LowerOps = 0;
  uint64_t HigherOps = 0;
};

/// Scans a level-tagged profile document for §4.2 degradations: every
/// (routine, level pair) where the higher of the four measured levels has
/// strictly more DynOps than a lower one. Entries whose Level string is
/// not one of the measured levels are ignored.
std::vector<Degradation> detectDegradations(const ProfileDoc &Doc);

/// Dynamic profile of a whole suite run: one level-tagged summary entry
/// per (routine, level), plus the detected degradations.
struct SuiteDynamicProfile {
  ProfileDoc Doc;
  std::vector<Degradation> Degradations;
  unsigned Failures = 0;
};

/// Profiles every routine of \p Suite at the four measured levels
/// (Baseline, Partial, Reassociation, Distribution). Routines that fail to
/// compile or trap are counted in Failures and omitted from the document.
SuiteDynamicProfile profileSuite(const std::vector<Routine> &Suite,
                                 const PipelineOptions *Overrides = nullptr);

/// Measures only the forward-propagation static code expansion (Table 2):
/// the counters of SSA construction and forward propagation alone on \p R.
PipelineStats measureForwardPropExpansion(const Routine &R);

} // namespace epre

#endif // EPRE_SUITE_HARNESS_H
