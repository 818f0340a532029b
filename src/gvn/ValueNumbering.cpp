//===- gvn/ValueNumbering.cpp ---------------------------------------------===//

#include "gvn/ValueNumbering.h"

#include "analysis/CFG.h"
#include "analysis/EdgeSplitting.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>
#include <vector>

using namespace epre;

namespace {

/// Kinds of base key, one per structural family. Two registers start in
/// one class iff their (tag, A, B) triples are equal.
enum class KeyTag : uint32_t {
  IntConst,   ///< A = the immediate
  FloatConst, ///< A = the immediate's bits
  Load,       ///< A = the destination: a load is congruent to nothing else
  Phi,        ///< A = block, B = type: phis merge only within one block
  Copy,       ///< a copy is congruent to its source
  Call,       ///< A = intrinsic, B = type
  Op,         ///< A = opcode, B = type
  Param,      ///< A = the parameter: each is its own class
};

struct BaseKey {
  KeyTag Tag = KeyTag::Op;
  uint64_t A = 0, B = 0;

  bool operator==(const BaseKey &RHS) const {
    return Tag == RHS.Tag && A == RHS.A && B == RHS.B;
  }
};

struct BaseKeyHash {
  size_t operator()(const BaseKey &K) const {
    return size_t(hashCombine(hashCombine(uint64_t(K.Tag), K.A), K.B));
  }
};

constexpr unsigned NoClass = ~0u;

/// The refined AWZ congruence partition of an SSA-form function, before
/// renaming, on register-indexed arrays. Members are the registers an
/// instruction or the parameter list defines, ascending; member I refines
/// by the classes of Ops[OpStart[I]] .. Ops[OpStart[I + 1] - 1] (phi
/// operands in sorted predecessor order). Class ids are dense from 0.
struct CongruencePartition {
  std::vector<Reg> Members;
  std::vector<uint32_t> OpStart;
  std::vector<Reg> Ops;
  std::vector<unsigned> ClassOf; ///< per register; NoClass off Members
  unsigned NumClasses = 0;
  uint64_t Work = 0; ///< signature words hashed, over all rounds

  /// The refinement word for operand \p R: its class, or a class of its
  /// own when nothing defines it (stray registers tolerated).
  unsigned operandClass(Reg R) const {
    return ClassOf[R] != NoClass ? ClassOf[R] : ~R;
  }
};

/// The base key of an instruction's destination; appends the operands the
/// refinement compares to \p Ops.
BaseKey baseKey(const BasicBlock &B, const Instruction &I,
                std::vector<Reg> &Ops) {
  switch (I.Op) {
  case Opcode::LoadI:
    return {KeyTag::IntConst, uint64_t(I.IImm), 0};
  case Opcode::LoadF: {
    uint64_t Bits;
    std::memcpy(&Bits, &I.FImm, sizeof(double));
    return {KeyTag::FloatConst, Bits, 0};
  }
  case Opcode::Load:
    // Memory values are never congruent to anything (no alias info).
    Ops.insert(Ops.end(), I.Operands.begin(), I.Operands.end());
    return {KeyTag::Load, I.Dst, 0};
  case Opcode::Phi: {
    // Operands compared in predecessor order so positional refinement is
    // meaningful.
    std::vector<std::pair<BlockId, Reg>> Inputs;
    for (unsigned J = 0; J < I.Operands.size(); ++J)
      Inputs.push_back({I.PhiBlocks[J], I.Operands[J]});
    std::sort(Inputs.begin(), Inputs.end());
    for (auto &[Pred, R] : Inputs)
      Ops.push_back(R);
    return {KeyTag::Phi, B.id(), uint64_t(I.Ty)};
  }
  case Opcode::Copy:
    // SSA construction folds copies; a remaining one is equivalent to its
    // source, which refinement discovers if we class it with the identity
    // operator.
    Ops.insert(Ops.end(), I.Operands.begin(), I.Operands.end());
    return {KeyTag::Copy, 0, 0};
  case Opcode::Call:
    Ops.insert(Ops.end(), I.Operands.begin(), I.Operands.end());
    return {KeyTag::Call, uint64_t(I.Intr), uint64_t(I.Ty)};
  default:
    Ops.insert(Ops.end(), I.Operands.begin(), I.Operands.end());
    return {KeyTag::Op, uint64_t(I.Op), uint64_t(I.Ty)};
  }
}

/// Builds base keys and the operand lists used for refinement, and the
/// initial (optimistic) partition: by base key alone.
void collect(Function &F, CongruencePartition &P) {
  // One record per definition; a register points at its latest record, and
  // a parameter's own record replaces any instruction's.
  struct Def {
    BaseKey Key;
    uint32_t OpBegin, OpEnd;
  };
  std::vector<Def> Defs;
  std::vector<Reg> DefOps;
  constexpr uint32_t NoDef = ~0u;
  std::vector<uint32_t> DefOf(F.numRegs(), NoDef);
  auto record = [&](Reg R, const BaseKey &K, uint32_t OpBegin) {
    DefOf[R] = uint32_t(Defs.size());
    Defs.push_back({K, OpBegin, uint32_t(DefOps.size())});
  };
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (!I.hasDst())
        continue;
      assert(DefOf[I.Dst] == NoDef && "valueNumberSSA requires SSA form");
      uint32_t OpBegin = uint32_t(DefOps.size());
      BaseKey K = baseKey(B, I, DefOps);
      record(I.Dst, K, OpBegin);
    }
  });
  for (Reg Param : F.params())
    record(Param, {KeyTag::Param, Param, 0}, uint32_t(DefOps.size()));

  std::unordered_map<BaseKey, unsigned, BaseKeyHash> ClassByKey;
  P.ClassOf.assign(DefOf.size(), NoClass);
  P.OpStart.push_back(0);
  for (Reg R = 0; R < DefOf.size(); ++R) {
    if (DefOf[R] == NoDef)
      continue;
    const Def &D = Defs[DefOf[R]];
    P.Members.push_back(R);
    P.Ops.insert(P.Ops.end(), DefOps.begin() + D.OpBegin,
                 DefOps.begin() + D.OpEnd);
    P.OpStart.push_back(uint32_t(P.Ops.size()));
    auto It = ClassByKey.emplace(D.Key, unsigned(ClassByKey.size())).first;
    P.ClassOf[R] = It->second;
  }
  P.NumClasses = unsigned(ClassByKey.size());
}

/// Iteratively re-partitions by (own class, operand classes) until stable.
/// Each round hash-conses every member's signature in one open-addressed
/// table whose slots name the first member seen with it. The refinement
/// is monotone — every round splits classes, never merges them — so the
/// partition is stable exactly when a round adds no class, and a
/// register's own class stands in for its base key (docs/gvn-engines.md).
void refine(CongruencePartition &P) {
  const unsigned N = unsigned(P.Members.size());
  unsigned Cap = 16;
  while (Cap < 2 * N)
    Cap *= 2;
  struct Slot {
    uint64_t Hash;
    unsigned Member; ///< NoClass marks an empty slot
  };
  std::vector<Slot> Table;
  std::vector<unsigned> Next(P.ClassOf.size(), NoClass);

  auto sameSignature = [&](unsigned X, unsigned Y) {
    if (P.ClassOf[P.Members[X]] != P.ClassOf[P.Members[Y]])
      return false;
    uint32_t XB = P.OpStart[X], XE = P.OpStart[X + 1];
    uint32_t YB = P.OpStart[Y], YE = P.OpStart[Y + 1];
    if (XE - XB != YE - YB)
      return false;
    for (uint32_t K = 0; K < XE - XB; ++K)
      if (P.operandClass(P.Ops[XB + K]) != P.operandClass(P.Ops[YB + K]))
        return false;
    return true;
  };

  for (;;) {
    Table.assign(Cap, {0, NoClass});
    unsigned NewClasses = 0;
    for (unsigned I = 0; I < N; ++I) {
      Reg R = P.Members[I];
      uint64_t H = hashCombine(P.ClassOf[R], P.OpStart[I + 1] - P.OpStart[I]);
      for (uint32_t K = P.OpStart[I]; K < P.OpStart[I + 1]; ++K)
        H = hashCombine(H, P.operandClass(P.Ops[K]));
      P.Work += 1 + (P.OpStart[I + 1] - P.OpStart[I]);
      for (size_t S = size_t(H) & (Cap - 1);; S = (S + 1) & (Cap - 1)) {
        Slot &Sl = Table[S];
        if (Sl.Member == NoClass) {
          Sl = {H, I};
          Next[R] = NewClasses++;
          break;
        }
        if (Sl.Hash == H && sameSignature(Sl.Member, I)) {
          Next[R] = Next[P.Members[Sl.Member]];
          break;
        }
      }
    }
    bool Stable = NewClasses == P.NumClasses;
    P.ClassOf.swap(Next);
    P.NumClasses = NewClasses;
    if (Stable)
      return;
  }
}

CongruencePartition computeCongruencePartition(Function &F) {
  CongruencePartition P;
  collect(F, P);
  refine(P);
  return P;
}

/// Renames every definition and use to its class representative (the
/// smallest register; a parameter always represents its own class) and
/// collapses congruent phis within a block. Counts the instructions visited
/// into P.Work. \p Ctx, when non-null, receives a Merge remark per renamed
/// definition.
GVNStats renameToClassReps(Function &F, CongruencePartition &P,
                           PassContext *Ctx) {
  GVNStats Stats;
  Stats.Registers = unsigned(P.Members.size());
  Stats.Classes = P.NumClasses;

  // Representative per class: its smallest register, the first member
  // seen. A parameter's base key names it, so its class holds it alone and
  // it always represents that class.
  std::vector<Reg> Rep(P.NumClasses, NoReg);
  for (Reg R : P.Members)
    if (Rep[P.ClassOf[R]] == NoReg)
      Rep[P.ClassOf[R]] = R;

  auto repOf = [&](Reg R) {
    return P.ClassOf[R] != NoClass ? Rep[P.ClassOf[R]] : R;
  };

  std::vector<Reg> PhiSeen;
  F.forEachBlock([&](BasicBlock &B) {
    P.Work += B.Insts.size();
    PhiSeen.clear();
    size_t Kept = 0;
    for (Instruction &I : B.Insts) {
      if (I.hasDst()) {
        Reg NewDst = repOf(I.Dst);
        if (NewDst != I.Dst) {
          ++Stats.MergedDefs;
          if (Ctx && Ctx->remarksEnabled())
            Ctx->remark(RemarkKind::Merge, F, B.label(), opcodeName(I.Op),
                        strprintf("r%u renamed to congruent r%u", I.Dst,
                                  NewDst));
        }
        I.Dst = NewDst;
      }
      for (Reg &Op : I.Operands)
        Op = repOf(Op);
      // Congruent phis in one block collapse to a single phi.
      if (I.isPhi()) {
        if (std::find(PhiSeen.begin(), PhiSeen.end(), I.Dst) !=
            PhiSeen.end())
          continue;
        PhiSeen.push_back(I.Dst);
      }
      if (&B.Insts[Kept] != &I)
        B.Insts[Kept] = std::move(I);
      ++Kept;
    }
    B.Insts.erase(B.Insts.begin() + Kept, B.Insts.end());
  });
  return Stats;
}

} // namespace

GVNStats epre::valueNumberSSA(Function &F) {
  CongruencePartition P = computeCongruencePartition(F);
  return renameToClassReps(F, P, nullptr);
}

void epre::GVNPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  // Keep copies as instructions: they are the definitions of "variable
  // names" (§2.2), and folding them away would let phi inputs reference
  // expression names across block boundaries — undoing the locality that
  // forward propagation established for PRE (§5.1).
  SSAOptions Opts;
  Opts.FoldCopies = false;
  SSABuildPass(Opts).run(F, Ctx);
  CongruencePartition P = computeCongruencePartition(F);
  Last = renameToClassReps(F, P, &Ctx);
  LastWork = P.Work;
  // AWZ rewrites uses to class representatives.
  F.bumpVersion();
  SSADestroyPass().run(F, Ctx);
  Ctx.addStat("registers", Last.Registers);
  Ctx.addStat("classes", Last.Classes);
  Ctx.addStat("merged_defs", Last.MergedDefs);
  Ctx.addStat("redundancies_found", Last.MergedDefs);
}
