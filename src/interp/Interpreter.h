//===- interp/Interpreter.h - ILOC interpreter with op counting --*- C++ -*-===//
///
/// \file
/// Executes IR functions, counting every dynamic operation (branches
/// included), which reproduces the paper's measurement setup: its back end
/// emitted C instrumented to accumulate dynamic ILOC operation counts. Phi
/// instructions execute (with parallel-read semantics) but cost zero
/// operations — measured code is always out of SSA form.
///
/// interpret() predecodes the function into flat bytecode and runs it
/// through a direct-threaded dispatch loop with fused superinstructions and
/// block-granular fuel accounting (interp/Predecode.h). It is the only
/// engine: the profiler, the suite harness, the fuzz oracle and the
/// benchmarks all go through it. Every verifier-clean function runs on it;
/// a function the verifier rejects traps before executing anything
/// (TrapKind::Malformed). The identity suite compares it bit for bit with a
/// tree-walking reference kept in tests/reference/ (docs/interpreter.md).
///
/// Passing a ProfileCollector additionally records per-block and per-edge
/// execution counts with per-block operation attribution (see
/// instrument/Profile.h). The hook is compiled as a separate template
/// instantiation, so the default non-profiling path carries no extra work
/// in its dispatch loop.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_INTERP_INTERPRETER_H
#define EPRE_INTERP_INTERPRETER_H

#include "ir/Eval.h"
#include "ir/Function.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace epre {

class ProfileCollector;

/// Byte-addressable data memory for a program run.
class MemoryImage {
public:
  explicit MemoryImage(size_t Bytes = 0) : Bytes(Bytes, 0) {}

  /// Bump-allocates \p N bytes (8-byte aligned); returns the byte offset.
  int64_t allocate(size_t N);

  size_t size() const { return Bytes.size(); }

  bool inBounds(int64_t Addr, size_t N) const {
    return Addr >= 0 && size_t(Addr) + N <= Bytes.size();
  }

  void storeF64(int64_t Addr, double V);
  void storeI64(int64_t Addr, int64_t V);
  double loadF64(int64_t Addr) const;
  int64_t loadI64(int64_t Addr) const;

  /// Deterministic digest of the whole image (for differential testing):
  /// the shared chunked traversal of support/Hash.h with the
  /// hashCombine-chained mixing step. The pinned-digest unit test documents
  /// the little-endian values; see Hash.h for the contract.
  uint64_t hash() const { return hashMemoryImage(Bytes.data(), Bytes.size()); }

  std::vector<uint8_t> Bytes;
};

/// Machine-checkable classification of a trap. The differential fuzzer keys
/// on this: a resource trap (FuelExhausted) is an inconclusive verdict, not a
/// divergence, while the behavioral kinds must match exactly between the
/// unoptimized and optimized runs.
enum class TrapKind : uint8_t {
  None,            ///< Did not trap.
  ArgumentMismatch,///< Call-boundary arity or type error (pre-execution).
  ErasedBlock,     ///< Branch to a tombstoned block.
  MissingPhiEntry, ///< Phi had no incoming entry for the taken predecessor.
  FuelExhausted,   ///< ExecLimits::MaxOps hit — a resource limit, not UB.
  MemoryOutOfBounds,///< Load/store outside the MemoryImage.
  ArithmeticTrap,  ///< Division/remainder/F2I/Abs domain error (ir/Eval.h).
  Malformed,       ///< Verifier-rejected shape; nothing ran (pre-execution).
};

const char *trapKindName(TrapKind K);

/// Outcome of one interpreted call.
struct ExecResult {
  bool Trapped = false;
  /// Structured trap classification; None unless Trapped.
  TrapKind Kind = TrapKind::None;
  /// Human-readable trap cause, suffixed with the trap location
  /// ("... (in @f, block ^b2, inst 3)") when execution had entered a block.
  std::string TrapReason;
  /// Structured trap location. TrapBlock/TrapInstIndex are only meaningful
  /// when TrapBlock is non-empty (pre-execution traps such as an argument
  /// mismatch have a function but no block).
  std::string TrapFunction;
  std::string TrapBlock;
  unsigned TrapInstIndex = 0;
  bool HasReturn = false;
  RtValue ReturnValue;
  /// Total dynamic operations executed (phis excluded).
  uint64_t DynOps = 0;
  /// Latency-weighted dynamic cost (see opcodeCost): the paper's counts
  /// weigh every ILOC operation equally, which hides e.g. the benefit of
  /// strength reduction; this metric does not.
  uint64_t WeightedCost = 0;
  /// Dynamic operation count per opcode. Always sums to DynOps, even when
  /// a trap cuts the run short.
  std::vector<uint64_t> OpCounts;

  bool ok() const { return !Trapped; }
};

/// A classic latency weight per operation (adds/branches 1, multiplies 3,
/// divides 12, intrinsic calls 20, memory 2). Used for WeightedCost only;
/// DynOps remains the paper's unweighted count.
unsigned opcodeCost(Opcode Op);

/// Execution limits. Fuel above 2^62 operations is saturating: it counts as
/// unlimited in practice (a run would need centuries to get there), which
/// lets the engine keep its residual-fuel counter in a signed 64-bit word.
struct ExecLimits {
  uint64_t MaxOps = 500'000'000;
};

/// Runs \p F on \p Args, reading and writing \p Mem, on the predecoded
/// threaded engine. A function whose shape the verifier rejects returns at
/// once with a TrapKind::Malformed trap and DynOps == 0. When \p Prof is
/// non-null it is reset for \p F and filled during the run; call
/// Prof->finalize(F) afterwards for the label-keyed profile (valid for
/// trapped runs too — the profile covers everything executed up to the
/// trap).
ExecResult interpret(const Function &F, const std::vector<RtValue> &Args,
                     MemoryImage &Mem, const ExecLimits &Limits = {},
                     ProfileCollector *Prof = nullptr);

namespace detail {

/// Fuel above this saturates (see ExecLimits): ExecLimits::MaxOps is
/// clamped to this value, which keeps the engine's residual-fuel counter
/// representable in a signed 64-bit word.
inline constexpr uint64_t FuelSaturation = uint64_t(1) << 62;

} // namespace detail

} // namespace epre

#endif // EPRE_INTERP_INTERPRETER_H
