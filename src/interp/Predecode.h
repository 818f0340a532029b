//===- interp/Predecode.h - Predecoded bytecode interpreter ------*- C++ -*-===//
///
/// \file
/// One-pass translation of a verified Function into a flat, contiguous
/// bytecode array executed by a direct-threaded dispatch loop (see
/// docs/interpreter.md). Predecoding resolves everything the tree-walking
/// interpreter re-derives on every executed instruction:
///
///  - operands become register-file slots read directly (no operand
///    vector is built per instruction);
///  - opcodes are split by operand type, so the hot loop never switches on
///    Type (an `add` is either POp::AddI or POp::AddF);
///  - phi reads are compiled into per-CFG-edge parallel-copy move
///    sequences, so block entry does no phi scanning at run time;
///  - block targets become bytecode offsets;
///  - hot opcode pairs identified by the committed dynamic profile
///    (address arithmetic feeding a load, compare feeding a conditional
///    branch, multiply feeding an add) are fused into superinstructions;
///  - the per-instruction fuel check is hoisted to a per-block
///    residual-fuel decrement; the one block that might cross the limit
///    runs on a careful instantiation of the same loop, which checks each
///    instruction's fuel and pins the exact trap instruction and counts.
///
/// The engine is observationally bit-identical to the tree-walking
/// reference in tests/reference/: same return value, memory image, DynOps,
/// per-opcode OpCounts, WeightedCost, trap kind, trap location, trap
/// message, and (when profiling) the same FunctionProfile. The
/// differential identity suite in tests/predecode_test.cpp enforces this.
///
/// predecode() accepts every function verifyFunction() accepts. It refuses
/// only verifier-rejected shapes (no terminator, phis after the first
/// non-phi, wrong operand or successor counts, out-of-range registers or
/// successors, integer-only operations typed f64), for which interpret()
/// reports TrapKind::Malformed without executing.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_INTERP_PREDECODE_H
#define EPRE_INTERP_PREDECODE_H

#include "interp/Interpreter.h"
#include "ssa/ParallelCopy.h"
#include "support/Arena.h"

#include <cstdint>
#include <vector>

namespace epre {

/// Predecoded operations. Kept in one X-macro so the executor's dispatch
/// table, the enum, and the mnemonic table can never drift apart.
///
/// Conventions: *I suffixes are I64-typed, *F are F64. "Fuse*" ops execute
/// two original instructions (both register writes still happen, so
/// later uses of the intermediate value observe it).
#define EPRE_POP_LIST(X)                                                       \
  X(BlockEntry)     /* A=pblock; Imm=counted block ops: fuel + counters */     \
  X(Jump)           /* Imm=target pc (edge sequence -> block entry) */         \
  X(PhiMove)        /* Dst <- A, uncounted phi-edge parallel-copy move */      \
  X(TrapMissingPhi) /* A=succ pblock; B=phi index */                           \
  X(TrapErased)     /* Imm=raw erased BlockId */                               \
  X(LoadImmI)       /* Dst <- Imm */                                           \
  X(LoadImmF)       /* Dst <- bit_cast<double>(Imm) */                         \
  X(CopyI)          /* Dst <- A (counted register copy) */                     \
  X(LoadMem)        /* Dst <- mem[A], typed by Ty */                           \
  X(StoreMem)       /* mem[A] <- B (value type read at run time) */            \
  X(AddI) X(SubI) X(MulI) X(DivI) X(ModI) X(MinI) X(MaxI) X(NegI)              \
  X(AndI) X(OrI) X(XorI) X(NotI) X(ShlI) X(ShrI)                               \
  X(AddF) X(SubF) X(MulF) X(DivF) X(MinF) X(MaxF) X(NegF)                      \
  X(CmpI)           /* Sub=cmp Opcode byte, I64 operands */                    \
  X(CmpF)           /* Sub=cmp Opcode byte, F64 operands */                    \
  X(I2FOp) X(F2IOp)                                                            \
  X(CallOp)         /* Sub=Intrinsic byte; Flags=arity; A,B args */            \
  X(Br)             /* Imm=target pc; X=target original BlockId */             \
  X(CbrOp)          /* A=cond; Imm/Imm2=pcs; X/Y=original BlockIds */          \
  X(RetOp)          /* Flags bit 0: has value in A */                          \
  X(FuseAddLoad)    /* Dst <- A+B; Dst2 <- mem[Dst], typed by Ty */            \
  X(FuseMulAddI)    /* Dst <- A*B; Dst2 <- Dst + X (register X) */             \
  X(FuseMulAddF)                                                               \
  X(FuseCmpCbrI)    /* Sub=cmp kind; Dst <- A cmp B; branch on it */           \
  X(FuseCmpCbrF)

enum class POp : uint8_t {
#define EPRE_POP_ENUM(N) N,
  EPRE_POP_LIST(EPRE_POP_ENUM)
#undef EPRE_POP_ENUM
};

/// One fixed-width predecoded instruction. Field meaning is per-POp; see
/// EPRE_POP_LIST comments. Trap bookkeeping (Blk, OpsInto) lets every exit
/// path reconstruct the exact DynOps/OpCounts without per-instruction
/// counters: the original index of the instruction (of a fused pair's
/// second half) is its block's FirstNonPhi + OpsInto - 1.
struct PInst {
  POp Op = POp::Jump;
  uint8_t Sub = 0;     ///< cmp Opcode byte or Intrinsic byte
  Type Ty = Type::I64; ///< value type of the (second, if fused) operation
  uint8_t Flags = 0;
  uint32_t Blk = 0;     ///< owning predecoded block index
  uint32_t OpsInto = 0; ///< counted ops through this instruction in its
                        ///< block (0 for uncounted edge code)
  uint32_t Dst = 0, A = 0, B = 0, Dst2 = 0;
  uint32_t X = 0, Y = 0; ///< branch targets' original BlockIds
  int64_t Imm = 0;       ///< immediate bits / taken-target pc / block ops
  int64_t Imm2 = 0;      ///< not-taken-target pc
};
static_assert(sizeof(PInst) <= 56, "PInst grew past 56 bytes");

/// Per-block predecode metadata, indexed by dense predecoded block index.
struct PBlockInfo {
  BlockId OrigId = 0;
  uint32_t FirstPC = 0;     ///< pc of the block's BlockEntry instruction
  uint32_t FirstNonPhi = 0; ///< original index of the first non-phi
  uint32_t ExecLen = 0;     ///< original insts executed (through terminator)
  uint32_t Ops = 0;         ///< counted ops (ExecLen - FirstNonPhi)
  uint64_t Weight = 0;      ///< sum of opcodeCost over counted insts
};

/// A predecoded function: flat code array plus block metadata, all backed
/// by the Arena handed to Predecoder::predecode. Holds a pointer to the
/// source Function (labels, trap and count assembly), so it is valid only
/// while that Function is alive and unmodified.
class BytecodeFunction {
public:
  const Function *Src = nullptr;
  const PInst *Code = nullptr;
  uint32_t CodeLen = 0;
  const PBlockInfo *Blocks = nullptr;
  uint32_t NumBlocks = 0; ///< live (predecoded) blocks
  uint32_t StartPC = 0;
  uint32_t RegFileSize = 0; ///< F.numRegs() + parallel-copy scratch slots
  uint32_t FusedCount = 0;  ///< superinstructions formed (diagnostics)
  uint64_t SrcVersion = 0;  ///< F.version() at predecode time

  bool valid() const { return Src != nullptr; }
};

/// Translates Functions into bytecode. Owns reusable build buffers so a
/// campaign loop predecoding thousands of programs allocates only from the
/// caller's (resettable) arena after warm-up.
class Predecoder {
public:
  /// Predecodes \p F into \p Out with storage from \p A. Returns false —
  /// leaving \p Out invalid — only for verifier-rejected shapes (see file
  /// comment).
  bool predecode(const Function &F, Arena &A, BytecodeFunction &Out);

private:
  struct Fixup {
    uint32_t PC = 0;    ///< pc whose Imm (or Imm2, see Second) to patch
    BlockId Pred = 0;   ///< edge source
    BlockId Succ = 0;   ///< edge target
    bool Second = false;
  };
  std::vector<PInst> Code;
  std::vector<PBlockInfo> PBlocks;
  std::vector<uint32_t> PBlockOf; ///< orig BlockId -> pblock index (~0 dead)
  std::vector<Fixup> Fixups;
  std::vector<PendingCopy> Moves; ///< parallel-copy scratch

  uint32_t MaxPhis = 0;
  uint32_t Fused = 0;

  bool emitFunction(const Function &F);
  bool emitBlock(const Function &F, const BasicBlock &B, uint32_t PB);
  uint32_t emitEdge(const Function &F, BlockId Pred, BlockId Succ);
};

/// Executes predecoded bytecode (see file comment). \p Scratch provides the
/// register file and per-block counters; it is reset by the call — so it
/// must not be the arena holding \p BF's storage — and reusing one scratch
/// arena across runs keeps the campaign inner loop off the general heap.
ExecResult executeBytecode(const BytecodeFunction &BF,
                           const std::vector<RtValue> &Args, MemoryImage &Mem,
                           const ExecLimits &Limits, ProfileCollector *Prof,
                           Arena &Scratch);

/// The dispatch loop's name, "computed-goto", for benchmark records.
const char *interpDispatchMode();

} // namespace epre

#endif // EPRE_INTERP_PREDECODE_H
