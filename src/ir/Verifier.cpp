//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IRPrinter.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <cstdlib>

using namespace epre;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const Function &F, SSAMode Mode) : F(F), Mode(Mode) {}

  std::vector<std::string> run() {
    if (F.numBlocks() == 0 || !F.block(0)) {
      error("function has no entry block");
      return Errors;
    }
    computePreds();
    DefCount.assign(F.numRegs(), 0);
    F.forEachBlock([&](const BasicBlock &B) { checkBlock(B); });
    if (Mode == SSAMode::SSA) {
      for (Reg R = 0; R < DefCount.size(); ++R)
        if (DefCount[R] > 1)
          error(strprintf("register %%r%u has %u definitions in SSA mode",
                          R, DefCount[R]));
    }
    return Errors;
  }

private:
  void error(const std::string &Msg) { Errors.push_back(Msg); }

  /// Each block's distinct predecessors, in id order.
  void computePreds() {
    Preds.assign(F.numBlocks(), {});
    Seen.assign(F.numBlocks(), 0);
    F.forEachBlock([&](const BasicBlock &B) {
      if (!B.hasTerminator())
        return;
      for (BlockId S : B.terminator().Succs)
        if (S < F.numBlocks() && F.block(S) &&
            (Preds[S].empty() || Preds[S].back() != B.id()))
          Preds[S].push_back(B.id());
    });
  }

  /// True when \p PhiBlocks names each predecessor of \p B exactly once.
  bool matchesPreds(const BasicBlock &B,
                    const SmallVector<BlockId, 2> &PhiBlocks) {
    const std::vector<BlockId> &P = Preds[B.id()];
    if (PhiBlocks.size() != P.size())
      return false;
    ++Stamp;
    for (BlockId Pred : P)
      Seen[Pred] = Stamp;
    for (BlockId In : PhiBlocks) {
      if (In >= Seen.size() || Seen[In] != Stamp)
        return false; // not a predecessor, or named twice
      Seen[In] = 0;
    }
    return true;
  }

  void checkReg(const BasicBlock &B, Reg R, const char *What) {
    if (R == NoReg || R >= F.numRegs())
      error(strprintf("block ^%s: %s register %%r%u out of range",
                      B.label().c_str(), What, R));
  }

  void checkBlock(const BasicBlock &B) {
    if (B.Insts.empty()) {
      error(strprintf("block ^%s is empty", B.label().c_str()));
      return;
    }
    if (!B.Insts.back().isTerminator())
      error(strprintf("block ^%s does not end in a terminator",
                      B.label().c_str()));
    bool SeenNonPhi = false;
    for (unsigned Idx = 0; Idx < B.Insts.size(); ++Idx) {
      const Instruction &I = B.Insts[Idx];
      if (I.isTerminator() && Idx + 1 != B.Insts.size())
        error(strprintf("block ^%s: terminator not at end",
                        B.label().c_str()));
      if (I.isPhi()) {
        if (Mode == SSAMode::NoSSA)
          error(strprintf("block ^%s: phi present in NoSSA mode",
                          B.label().c_str()));
        if (SeenNonPhi)
          error(strprintf("block ^%s: phi after non-phi", B.label().c_str()));
      } else {
        SeenNonPhi = true;
      }
      checkInstruction(B, I);
    }
  }

  void checkInstruction(const BasicBlock &B, const Instruction &I) {
    // Destination. Value-free opcodes must carry NoReg: a stale Dst (left
    // by a rewrite that recycled an instruction) would corrupt liveness and
    // def counting.
    bool ValueFree = I.Op == Opcode::Store || I.Op == Opcode::Br ||
                     I.Op == Opcode::Cbr || I.Op == Opcode::Ret;
    if (ValueFree && I.hasDst())
      error(strprintf("block ^%s: %s must not define a register (has r%u)",
                      B.label().c_str(), opcodeName(I.Op), I.Dst));
    if (I.hasDst()) {
      checkReg(B, I.Dst, "destination");
      if (I.Dst < F.numRegs() && I.Dst != NoReg)
        ++DefCount[I.Dst];
    }
    // Operands exist.
    for (Reg R : I.Operands)
      checkReg(B, R, "operand");

    // Operand-count discipline. Skip the type checks below on a mismatch:
    // they index operands positionally.
    int N = fixedOperandCount(I.Op);
    if (N >= 0 && int(I.Operands.size()) != N) {
      error(strprintf("block ^%s: %s expects %d operands, has %zu",
                      B.label().c_str(), opcodeName(I.Op), N,
                      I.Operands.size()));
      return;
    }
    if (I.Op == Opcode::Call && I.Operands.size() != intrinsicArity(I.Intr))
      error(strprintf("block ^%s: intrinsic %s expects %u arguments",
                      B.label().c_str(), intrinsicName(I.Intr),
                      intrinsicArity(I.Intr)));
    if (I.Op == Opcode::Ret && I.Operands.size() > 1)
      error(strprintf("block ^%s: ret has more than one operand",
                      B.label().c_str()));

    // Type discipline (only checkable when operands are valid).
    auto regTyOk = [&](Reg R) { return R != NoReg && R < F.numRegs(); };
    auto opTy = [&](unsigned J) { return F.regType(I.Operands[J]); };
    switch (I.Op) {
    case Opcode::LoadI:
      if (regTyOk(I.Dst) && F.regType(I.Dst) != Type::I64)
        error("loadi destination must be i64");
      break;
    case Opcode::LoadF:
      if (regTyOk(I.Dst) && F.regType(I.Dst) != Type::F64)
        error("loadf destination must be f64");
      break;
    case Opcode::Load:
    case Opcode::Store:
      if (regTyOk(I.Operands[0]) && opTy(0) != Type::I64)
        error(strprintf("block ^%s: memory address must be i64",
                        B.label().c_str()));
      break;
    case Opcode::Cbr:
      if (regTyOk(I.Operands[0]) && opTy(0) != Type::I64)
        error("cbr condition must be i64");
      break;
    case Opcode::I2F:
      if (regTyOk(I.Operands[0]) && opTy(0) != Type::I64)
        error("i2f operand must be i64");
      if (regTyOk(I.Dst) && F.regType(I.Dst) != Type::F64)
        error("i2f destination must be f64");
      break;
    case Opcode::F2I:
      if (regTyOk(I.Operands[0]) && opTy(0) != Type::F64)
        error("f2i operand must be f64");
      if (regTyOk(I.Dst) && F.regType(I.Dst) != Type::I64)
        error("f2i destination must be i64");
      break;
    default:
      if (isIntegerOnly(I.Op)) {
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          if (regTyOk(I.Operands[J]) && opTy(J) != Type::I64)
            error(strprintf("block ^%s: %s requires i64 operands",
                            B.label().c_str(), opcodeName(I.Op)));
        if (I.Ty != Type::I64 ||
            (regTyOk(I.Dst) && F.regType(I.Dst) != Type::I64))
          error(strprintf("block ^%s: %s must be typed i64",
                          B.label().c_str(), opcodeName(I.Op)));
      }
      if (isComparison(I.Op) && regTyOk(I.Dst) &&
          F.regType(I.Dst) != Type::I64)
        error("comparison destination must be i64");
      break;
    }

    // Successor references.
    size_t WantSuccs =
        I.Op == Opcode::Br ? 1 : I.Op == Opcode::Cbr ? 2 : I.Succs.size();
    if (I.Succs.size() != WantSuccs)
      error(strprintf("block ^%s: %s expects %zu successors, has %zu",
                      B.label().c_str(), opcodeName(I.Op), WantSuccs,
                      I.Succs.size()));
    for (BlockId S : I.Succs)
      if (S >= F.numBlocks() || !F.block(S))
        error(strprintf("block ^%s: branch to dead block %u",
                        B.label().c_str(), S));
    if (I.Op == Opcode::Cbr && I.Succs.size() == 2 &&
        I.Succs[0] == I.Succs[1])
      error(strprintf("block ^%s: cbr names one block twice",
                      B.label().c_str()));

    // Phi shape.
    if (I.isPhi()) {
      if (I.Operands.size() != I.PhiBlocks.size())
        error(strprintf("block ^%s: phi operand/block count mismatch",
                        B.label().c_str()));
      if (Mode != SSAMode::NoSSA) {
        // A cbr names two distinct blocks: one entry per predecessor.
        if (!matchesPreds(B, I.PhiBlocks))
          error(strprintf(
              "block ^%s: phi incoming blocks do not match predecessors",
              B.label().c_str()));
      }
    }
  }

  const Function &F;
  SSAMode Mode;
  std::vector<std::string> Errors;
  /// Indexed by Reg.
  std::vector<unsigned> DefCount;
  /// Indexed by BlockId; Seen[P] == Stamp marks P as a predecessor not yet
  /// named by the phi being checked.
  std::vector<std::vector<BlockId>> Preds;
  std::vector<uint32_t> Seen;
  uint32_t Stamp = 0;
};

} // namespace

std::vector<std::string> epre::verifyFunction(const Function &F,
                                              SSAMode Mode) {
  return VerifierImpl(F, Mode).run();
}

std::vector<std::string> epre::verifyModule(const Module &M, SSAMode Mode) {
  std::vector<std::string> Errors;
  for (const auto &F : M.Functions)
    for (const std::string &E : verifyFunction(*F, Mode))
      Errors.push_back("@" + F->name() + ": " + E);
  return Errors;
}

void epre::verifyOrDie(const Function &F, SSAMode Mode, const char *When) {
  std::vector<std::string> Errors = verifyFunction(F, Mode);
  if (Errors.empty())
    return;
  std::fprintf(stderr, "verifier failed after %s in @%s:\n", When,
               F.name().c_str());
  for (const std::string &E : Errors)
    std::fprintf(stderr, "  %s\n", E.c_str());
  std::fprintf(stderr, "%s", printFunction(F).c_str());
  std::abort();
}
