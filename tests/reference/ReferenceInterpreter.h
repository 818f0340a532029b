//===- reference/ReferenceInterpreter.h - Tree-walk oracle ------*- C++ -*-===//
///
/// \file
/// The test-side reference for the bytecode interpreter: a plain
/// switch-dispatch tree-walk over the in-memory IR that checks fuel after
/// counting every instruction. The identity suite (predecode_test) requires
/// interpret() to match it bit for bit on every verifier-clean function —
/// return value, memory image, DynOps, per-opcode OpCounts, WeightedCost,
/// trap kind/location/message and, when profiling, the finalized profile —
/// and bench_interp times it as BM_InterpretLegacy.
///
/// It is meant for verifier-clean input only: shapes the verifier rejects
/// may read past operand lists or loop until the fuel runs out.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_REFERENCE_INTERPRETER_H
#define EPRE_TESTS_REFERENCE_INTERPRETER_H

#include "interp/Interpreter.h"

namespace epre {

/// Runs \p F on \p Args with the reference tree-walk. Same contract as
/// interpret() for verifier-clean functions.
ExecResult interpretReference(const Function &F,
                              const std::vector<RtValue> &Args,
                              MemoryImage &Mem, const ExecLimits &Limits = {},
                              ProfileCollector *Prof = nullptr);

} // namespace epre

#endif // EPRE_TESTS_REFERENCE_INTERPRETER_H
