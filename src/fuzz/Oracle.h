//===- fuzz/Oracle.h - Differential execution oracle ------------*- C++ -*-===//
///
/// \file
/// The differential oracle runs a program unoptimized (the reference) and
/// under every pipeline configuration worth distinguishing — opt levels,
/// PRE strategies, GVN engines, solver kinds, strength reduction — and
/// compares:
///
///  - trap verdicts: the structured TrapKind must match exactly (a fuel
///    exhaustion on the reference side makes the whole comparison
///    inconclusive rather than a finding);
///  - return values: I64 exact; F64 exact unless the config reassociates
///    floating point, then within a relative tolerance;
///  - memory images: hash-exact, or word-by-word with the program's typed
///    layout when FP reassociation may legally change low bits;
///  - dynamic operation counts: optimization "may only decrease" DynOps is
///    the paper's whole claim, but a violation is reported as a *weak*
///    warning, not a miscompile — it is a quality regression, not
///    unsoundness.
///
/// Every config run re-parses the program text, so configurations never
/// share mutable IR, and a prefix-bounded variant of the per-config run is
/// exposed for the bisector. The reference execution is deterministic in
/// (program, options), so runDifferentialOracle computes it once and shares
/// it across the whole config matrix instead of re-parsing and re-running
/// it per config.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_FUZZ_ORACLE_H
#define EPRE_FUZZ_ORACLE_H

#include "fuzz/FuzzGen.h"
#include "interp/Interpreter.h"
#include "pipeline/Pipeline.h"

#include <string>
#include <vector>

namespace epre {
namespace fuzz {

/// One pipeline configuration under test.
struct OracleConfig {
  std::string Name;   ///< e.g. "partial/lcm"
  PipelineOptions PO; ///< Verify is forced off; the oracle verifies itself
  /// True when the config may legally change F64 results (FP
  /// reassociation); switches the comparison to the tolerant mode.
  bool FPLoose = false;
  /// Attach a synthetic uniform-weight profile of the program to the
  /// pipeline (required by the speculative configs: every block and edge
  /// gets the same nonzero count, so the min-cut placement exercises
  /// arbitrary speculation decisions while staying deterministic).
  bool SyntheticProfile = false;
};

/// The full configuration matrix (17 configs, covering both GVN engines at
/// both opt levels), or the CI-budget subset (6 configs) when \p Quick.
std::vector<OracleConfig> oracleConfigs(bool Quick = false);

/// Looks up a config by Name; false if unknown.
bool findOracleConfig(const std::string &Name, bool Quick, OracleConfig &Out);

enum class MismatchKind : uint8_t {
  None,         ///< behaviorally identical
  Inconclusive, ///< reference ran out of fuel; no verdict possible
  ReturnValue,
  Memory,
  Trap,         ///< trap verdict changed (including clean -> trapped)
  VerifierFail, ///< optimized function no longer verifies
};

const char *mismatchKindName(MismatchKind K);

/// True for the kinds that indicate a miscompile (everything except None
/// and Inconclusive).
bool isMiscompile(MismatchKind K);

struct OracleOptions {
  /// Fuel for the reference run. Optimized runs get 4x the reference's
  /// actual DynOps (+ slack), so a diverged-to-infinite-loop optimized
  /// program is still caught deterministically.
  uint64_t RefMaxOps = 2'000'000;
  /// Relative tolerance for F64 under reassociating configs:
  /// |ref - got| <= Tol * (1 + |ref|).
  double FPTolerance = 1e-6;
};

/// Outcome of running one config against the reference.
struct ConfigOutcome {
  MismatchKind Kind = MismatchKind::None;
  std::string Detail;           ///< human-readable mismatch description
  uint64_t RefDynOps = 0;
  uint64_t OptDynOps = 0;
  /// DynOps grew beyond the weak bound at a full (non-prefix) run.
  bool WeakDynOpsViolation = false;
};

/// The unoptimized reference execution of a program: parse outcome, final
/// result, and final memory image. Compute once with runReference() and
/// reuse across every config comparison of the same program.
struct ReferenceRun {
  ExecResult R;
  MemoryImage Mem;
  /// False when the text does not parse or does not verify (Relaxed);
  /// ParseError then holds the parser's or the first verifier message and
  /// nothing was interpreted.
  bool ParseOk = false;
  std::string ParseError;
};

/// Parses, verifies and executes \p P unoptimized under \p O's reference
/// fuel.
ReferenceRun runReference(const FuzzProgram &P, const OracleOptions &O);

/// Runs \p C on a fresh parse of \p P and compares against the precomputed
/// reference \p Ref. \p PrefixPasses bounds the pipeline to a prefix (see
/// optimizeFunctionPrefix); ~0u means the full pipeline. The weak DynOps
/// check only applies to full runs: a prefix can legitimately sit
/// mid-expansion (e.g. after forward propagation, before cleanup).
ConfigOutcome runConfigOnce(const FuzzProgram &P, const OracleConfig &C,
                            const OracleOptions &O, const ReferenceRun &Ref,
                            unsigned PrefixPasses = ~0u);

/// Convenience overload that computes the reference itself (used by the
/// bisector, which runs one config at a time anyway).
ConfigOutcome runConfigOnce(const FuzzProgram &P, const OracleConfig &C,
                            const OracleOptions &O,
                            unsigned PrefixPasses = ~0u);

struct OracleFinding {
  std::string Config;
  MismatchKind Kind = MismatchKind::None;
  std::string Detail;
};

struct OracleResult {
  bool Mismatch = false;     ///< at least one config miscompiled
  bool Inconclusive = false; ///< reference fuel exhausted
  std::vector<OracleFinding> Findings;     ///< miscompiles only
  std::vector<std::string> WeakWarnings;   ///< DynOps-growth warnings
  unsigned ConfigsRun = 0;
};

/// Runs every config in \p Configs over \p P.
OracleResult runDifferentialOracle(const FuzzProgram &P,
                                   const OracleOptions &O,
                                   const std::vector<OracleConfig> &Configs);

} // namespace fuzz
} // namespace epre

#endif // EPRE_FUZZ_ORACLE_H
