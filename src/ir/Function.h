//===- ir/Function.h - Basic blocks and functions ---------------*- C++ -*-===//
///
/// \file
/// BasicBlock, Function and Module: the container side of the IR.
///
/// Blocks are owned by their Function and addressed by dense BlockId (their
/// index in the function's block table). Deleting a block leaves a tombstone
/// so ids stay stable; compact() renumbers when a pass wants density back.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_IR_FUNCTION_H
#define EPRE_IR_FUNCTION_H

#include "ir/Instruction.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace epre {

/// A maximal straight-line sequence of instructions ending in a terminator.
class BasicBlock {
public:
  BasicBlock(BlockId Id, std::string Label)
      : Id(Id), Label(std::move(Label)) {}

  BlockId id() const { return Id; }
  const std::string &label() const { return Label; }

  std::vector<Instruction> Insts;

  bool empty() const { return Insts.empty(); }

  /// Returns the terminator, which must be the last instruction.
  const Instruction &terminator() const {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }

  Instruction &terminator() {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }

  bool hasTerminator() const {
    return !Insts.empty() && Insts.back().isTerminator();
  }

  /// The block's successors, read from the terminator.
  const SmallVector<BlockId, 2> &successors() const {
    return terminator().Succs;
  }

  /// Returns the index of the first non-phi instruction.
  unsigned firstNonPhi() const {
    unsigned I = 0;
    while (I < Insts.size() && Insts[I].isPhi())
      ++I;
    return I;
  }

  /// Inserts \p Inst immediately before the terminator.
  void insertBeforeTerminator(Instruction Inst) {
    assert(hasTerminator() && "block has no terminator");
    Insts.insert(Insts.end() - 1, std::move(Inst));
  }

private:
  BlockId Id;
  std::string Label;
};

/// A function: a register file, parameters, and a CFG of basic blocks.
///
/// Registers are typed and allocated densely from 1 (register 0 is NoReg).
/// The entry block is always block 0.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  // --- Registers -----------------------------------------------------------

  /// Allocates a fresh register of type \p Ty.
  Reg makeReg(Type Ty) {
    RegTypes.push_back(Ty);
    bumpVersion();
    return Reg(RegTypes.size() - 1);
  }

  /// Number of register slots, including the reserved register 0.
  unsigned numRegs() const { return unsigned(RegTypes.size()); }

  Type regType(Reg R) const {
    assert(R != NoReg && R < RegTypes.size() && "bad register");
    return RegTypes[R];
  }

  void setRegType(Reg R, Type Ty) {
    assert(R != NoReg && R < RegTypes.size() && "bad register");
    RegTypes[R] = Ty;
  }

  // --- Parameters and return -----------------------------------------------

  Reg addParam(Type Ty) {
    Reg R = makeReg(Ty);
    Params.push_back(R);
    return R;
  }

  const std::vector<Reg> &params() const { return Params; }
  bool isParam(Reg R) const {
    for (Reg P : Params)
      if (P == R)
        return true;
    return false;
  }

  std::optional<Type> returnType() const { return RetTy; }
  void setReturnType(std::optional<Type> Ty) { RetTy = Ty; }

  // --- Blocks ----------------------------------------------------------------

  /// Creates a new block; the first block created is the entry block.
  BasicBlock *addBlock(std::string Label = "") {
    BlockId Id = BlockId(Blocks.size());
    if (Label.empty()) {
      Label += 'b';
      Label += std::to_string(Id);
    }
    Blocks.push_back(std::make_unique<BasicBlock>(Id, std::move(Label)));
    bumpVersion();
    return Blocks.back().get();
  }

  /// Total block table size (including tombstones).
  unsigned numBlocks() const { return unsigned(Blocks.size()); }

  /// Returns the block with id \p Id, or nullptr for a tombstone.
  BasicBlock *block(BlockId Id) {
    assert(Id < Blocks.size() && "bad block id");
    return Blocks[Id].get();
  }
  const BasicBlock *block(BlockId Id) const {
    assert(Id < Blocks.size() && "bad block id");
    return Blocks[Id].get();
  }

  BasicBlock *entry() {
    assert(!Blocks.empty() && Blocks[0] && "no entry block");
    return Blocks[0].get();
  }
  const BasicBlock *entry() const {
    assert(!Blocks.empty() && Blocks[0] && "no entry block");
    return Blocks[0].get();
  }

  /// Replaces block \p Id with a tombstone. The entry block cannot be erased.
  void eraseBlock(BlockId Id) {
    assert(Id != 0 && "cannot erase the entry block");
    assert(Id < Blocks.size() && "bad block id");
    Blocks[Id].reset();
    bumpVersion();
  }

  /// Iteration over live (non-tombstone) blocks in id order.
  template <typename Fn> void forEachBlock(Fn F) {
    for (auto &B : Blocks)
      if (B)
        F(*B);
  }
  template <typename Fn> void forEachBlock(Fn F) const {
    for (const auto &B : Blocks)
      if (B)
        F(*B);
  }

  // --- IR version ------------------------------------------------------------

  /// Monotonic counter identifying the current state of the IR. Bumped by
  /// every structural mutation routed through Function (block creation and
  /// removal, register allocation) and, explicitly via \ref bumpVersion, by
  /// passes that edit instructions in place (terminator rewrites, operand
  /// renaming). Predecoded bytecode records the version it was built from
  /// and asserts it still matches when run (interp/Predecode.h).
  uint64_t version() const { return Version; }

  /// Records that the IR changed. Cheap and safe to over-call.
  void bumpVersion() { ++Version; }

  /// True when some live block starts with a phi.
  bool hasPhi() const {
    bool Found = false;
    forEachBlock([&](const BasicBlock &B) { Found |= B.firstNonPhi() != 0; });
    return Found;
  }

  /// Counts all instructions in live blocks (the paper's static size metric).
  unsigned staticOperationCount() const {
    unsigned N = 0;
    forEachBlock([&](const BasicBlock &B) { N += unsigned(B.Insts.size()); });
    return N;
  }

private:
  std::string Name;
  std::vector<Reg> Params;
  std::optional<Type> RetTy;
  /// Indexed by Reg; slot 0 is the reserved NoReg.
  std::vector<Type> RegTypes = {Type::I64};
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  uint64_t Version = 0;
};

/// A translation unit: a list of functions.
class Module {
public:
  Function *addFunction(std::string Name) {
    Functions.push_back(std::make_unique<Function>(std::move(Name)));
    return Functions.back().get();
  }

  Function *find(const std::string &Name) {
    for (auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

  std::vector<std::unique_ptr<Function>> Functions;
};

/// Rewrites a `cbr c, ^X, ^X` terminating \p B to `br ^X` and keeps one of
/// ^X's phi entries from \p B. A cbr names two distinct blocks
/// (docs/IR.md), so a block's predecessors are distinct and each phi entry
/// names one edge. Any other terminator is left alone. Returns false, and
/// changes nothing, when ^X's phi entries from \p B disagree: no single
/// edge can carry both values.
bool foldEqualTargetBranch(Function &F, BasicBlock &B);

/// Drops the entry from \p Pred in each of \p S's phis, the edge Pred -> S
/// being gone.
void removePhiEntries(BasicBlock &S, BlockId Pred);

} // namespace epre

#endif // EPRE_IR_FUNCTION_H
