//===- fuzz/FuzzGen.h - Structured IR program generator ---------*- C++ -*-===//
///
/// \file
/// Generates random, verifier-clean, trap-free-by-construction modules for
/// the differential fuzzer. The generator emits structured control flow
/// (nested if/else, counted loops with optional breaks) directly via
/// IRBuilder and follows the front end's §2.2 hashed naming discipline —
/// one destination register per lexical expression, every use immediately
/// after a local definition — so the generated code is legal input for
/// every pipeline level, including 'partial'.
///
/// Trap freedom is constructive: divisors are masked to [1, 8], float
/// denominators pass through |x|+1, array indices are masked into their
/// array, F2I and the overflow-prone intrinsics are never emitted, float
/// magnitudes are clamped at every variable assignment, and all loops are
/// counted with constant trip bounds. Every program stores its live
/// variables to a typed memory dump area and returns an integer digest, so
/// the oracle's memory and return-value comparisons see all of the
/// program's state.
///
/// Shape "cfg" leaves structure behind: a random graph of 3–9 blocks over
/// integer variables, written as text so that it keeps what the parser
/// folds. It has `cbr`s naming one block twice, self-loops, irreducible
/// loops, critical edges and, in a quarter of the programs, unreachable
/// blocks that carry phis. Its bodies add, subtract and multiply, which
/// cannot trap, and every cycle passes a block that spends one unit of a
/// fuel counter and leaves for the exit when none is left, so every run
/// ends.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_FUZZ_FUZZGEN_H
#define EPRE_FUZZ_FUZZGEN_H

#include "ir/Eval.h"
#include "ir/Function.h"

#include <cstdint>
#include <string>
#include <vector>

namespace epre {
namespace fuzz {

/// Size and shape knobs for one generated program.
struct GeneratorOptions {
  unsigned MaxStmts = 24;        ///< statement budget for the whole body
  unsigned MaxExprDepth = 3;     ///< expression tree depth
  unsigned MaxLoopNest = 2;      ///< loop nesting depth
  unsigned MaxLoopTrip = 6;      ///< constant loop trip count bound
  unsigned IfPercent = 35;       ///< chance a statement is an if region
  unsigned LoopPercent = 20;     ///< chance a statement is a loop region
  unsigned CriticalEdgePercent = 40; ///< chance an if has no else arm
  unsigned LoopBreakPercent = 30;    ///< chance a loop body gets an early exit
  unsigned FloatPercent = 40;    ///< chance a computation is F64
  unsigned ArrayPercent = 25;    ///< chance a statement touches an array
  unsigned IntrinsicPercent = 20;///< chance a float node is an intrinsic call
  unsigned NumIntVars = 5;       ///< mutable I64 variables
  unsigned NumFloatVars = 3;     ///< mutable F64 variables
  unsigned NumIntParams = 2;     ///< I64 parameters
  unsigned NumFloatParams = 1;   ///< F64 parameters
  /// Nonzero: shape "cfg", a random graph of 3 to this many blocks over
  /// NumIntVars variables; the knobs above except NumIntVars are unused.
  unsigned MaxCFGBlocks = 0;
};

/// One generated (or corpus-loaded) test program: the canonical artifact is
/// the printed text, which every oracle run re-parses so runs never share
/// mutable IR.
struct FuzzProgram {
  std::string Text;            ///< printed module
  uint64_t Seed = 0;
  std::string Shape;           ///< shape preset name (or "corpus")
  size_t MemBytes = 0;         ///< memory image size for every run
  /// Static type of each 8-byte memory word, for the oracle's tolerant
  /// comparison under FP reassociation. Empty means "compare the image
  /// hash exactly" (used for integer-only corpus entries).
  std::vector<Type> MemWords;
  std::vector<RtValue> Args;   ///< argument vector for the entry function
};

/// The structured shape presets: "small", "branchy", "loopy", "phiweb",
/// "intonly", "arrays". "phiweb" maximizes joins and live variables so SSA
/// construction builds dense phi webs; "intonly" emits no F64 at all,
/// making every config — including FP reassociation — bit-exact.
std::vector<std::string> generatorShapeNames();

/// Returns the preset for \p Shape, one of generatorShapeNames() or
/// "cfg"; false if the name is unknown.
bool shapeOptions(const std::string &Shape, GeneratorOptions &Opts);

/// Generates one program from \p Seed. The result is deterministic in
/// (Seed, Opts). A structured program is always accepted by
/// verifyModule(NoSSA); a "cfg" program parses and passes
/// verifyModule(Relaxed).
FuzzProgram generateProgram(uint64_t Seed, const GeneratorOptions &Opts,
                            const std::string &ShapeName = "custom");

} // namespace fuzz
} // namespace epre

#endif // EPRE_FUZZ_FUZZGEN_H
