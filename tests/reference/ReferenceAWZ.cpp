//===- reference/ReferenceAWZ.cpp -----------------------------------------===//

#include "ReferenceAWZ.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace epre;

namespace {

/// The refined AWZ congruence partition of an SSA-form function, before
/// renaming: a class id per register plus the structural ingredients the
/// refinement used (base key strings; refinement operand lists, phi
/// operands in sorted predecessor order). Class ids are dense from 0.
struct CongruencePartition {
  std::map<Reg, std::string> Keys;
  std::map<Reg, std::vector<Reg>> Operands;
  std::map<Reg, unsigned> ClassOf;
};

/// Builds base keys and the operand lists used for refinement.
void collect(Function &F, CongruencePartition &P) {
#ifndef NDEBUG
  std::map<Reg, bool> Defined;
#endif
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (!I.hasDst())
        continue;
#ifndef NDEBUG
      assert(!Defined.count(I.Dst) && "valueNumberSSA requires SSA form");
      Defined[I.Dst] = true;
#endif
      std::string K;
      std::vector<Reg> Ops;
      switch (I.Op) {
      case Opcode::LoadI:
        K = strprintf("ci:%lld", (long long)I.IImm);
        break;
      case Opcode::LoadF: {
        uint64_t Bits;
        std::memcpy(&Bits, &I.FImm, sizeof(double));
        K = strprintf("cf:%llu", (unsigned long long)Bits);
        break;
      }
      case Opcode::Load:
        // Memory values are never congruent to anything (no alias info).
        K = strprintf("load:%u", I.Dst);
        Ops.assign(I.Operands.begin(), I.Operands.end());
        break;
      case Opcode::Phi: {
        // Phis are congruent only within one block; operands compared in
        // predecessor order so positional refinement is meaningful.
        K = strprintf("phi:%u:%u", B.id(), unsigned(I.Ty));
        std::vector<std::pair<BlockId, Reg>> Inputs;
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          Inputs.push_back({I.PhiBlocks[J], I.Operands[J]});
        std::sort(Inputs.begin(), Inputs.end());
        for (auto &[Pred, R] : Inputs)
          Ops.push_back(R);
        break;
      }
      case Opcode::Copy:
        // SSA construction folds copies; a remaining one is equivalent to
        // its source, which refinement discovers if we class it with the
        // identity operator.
        K = "copy";
        Ops.assign(I.Operands.begin(), I.Operands.end());
        break;
      case Opcode::Call:
        K = strprintf("call:%u:%u", unsigned(I.Intr), unsigned(I.Ty));
        Ops.assign(I.Operands.begin(), I.Operands.end());
        break;
      default:
        K = strprintf("op:%u:%u", unsigned(I.Op), unsigned(I.Ty));
        Ops.assign(I.Operands.begin(), I.Operands.end());
        break;
      }
      P.Keys[I.Dst] = std::move(K);
      P.Operands[I.Dst] = std::move(Ops);
    }
  });
  for (Reg Param : F.params()) {
    P.Keys[Param] = strprintf("param:%u", Param);
    P.Operands[Param] = {};
  }

  // Initial (optimistic) partition: by base key alone.
  std::map<std::string, unsigned> ClassByKey;
  for (auto &[R, K] : P.Keys) {
    auto It = ClassByKey.find(K);
    if (It == ClassByKey.end())
      It = ClassByKey.emplace(K, unsigned(ClassByKey.size())).first;
    P.ClassOf[R] = It->second;
  }
}

unsigned countClasses(const std::map<Reg, unsigned> &M) {
  std::map<unsigned, unsigned> Seen;
  for (auto &[R, C] : M)
    Seen[C] = 1;
  return unsigned(Seen.size());
}

/// Iteratively re-partitions by (base key, operand classes) until stable.
void refine(CongruencePartition &P) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::map<std::string, unsigned> NewClassBySig;
    std::map<Reg, unsigned> NewClassOf;
    for (auto &[R, K] : P.Keys) {
      std::string Sig = K;
      for (Reg Op : P.Operands[R]) {
        auto It = P.ClassOf.find(Op);
        // Operands must be defined (SSA); tolerate stray registers by
        // giving them a unique class.
        unsigned C = It != P.ClassOf.end() ? It->second : ~Op;
        Sig += strprintf("|%u", C);
      }
      auto It = NewClassBySig.find(Sig);
      if (It == NewClassBySig.end())
        It = NewClassBySig.emplace(Sig, unsigned(NewClassBySig.size())).first;
      NewClassOf[R] = It->second;
    }
    // Stable iff the new partition has the same number of classes (the
    // signature map can only refine the previous round's partition).
    if (countClasses(P.ClassOf) != countClasses(NewClassOf))
      Changed = true;
    P.ClassOf = std::move(NewClassOf);
  }
}

CongruencePartition computeCongruencePartition(Function &F) {
  CongruencePartition P;
  collect(F, P);
  refine(P);
  return P;
}

/// Renames every definition and use to its class representative (the
/// smallest register, except parameters always represent their class) and
/// collapses congruent phis within a block.
GVNStats renameToClassReps(Function &F,
                           const std::map<Reg, unsigned> &ClassOf) {
  GVNStats Stats;
  Stats.Registers = unsigned(ClassOf.size());

  // Representative per class: the smallest register, except parameters
  // always represent their class (their name is part of the signature
  // anyway, so a class holds at most one parameter).
  std::map<unsigned, Reg> Rep;
  for (auto &[R, C] : ClassOf) {
    auto It = Rep.find(C);
    if (It == Rep.end() || R < It->second)
      Rep[C] = R;
  }
  for (Reg P : F.params()) {
    auto It = ClassOf.find(P);
    if (It != ClassOf.end())
      Rep[It->second] = P;
  }
  Stats.Classes = unsigned(Rep.size());

  auto repOf = [&](Reg R) {
    auto It = ClassOf.find(R);
    return It == ClassOf.end() ? R : Rep[It->second];
  };

  F.forEachBlock([&](BasicBlock &B) {
    std::vector<Instruction> Out;
    Out.reserve(B.Insts.size());
    std::vector<Reg> PhiSeen;
    for (Instruction &I : B.Insts) {
      if (I.hasDst()) {
        Reg NewDst = repOf(I.Dst);
        if (NewDst != I.Dst)
          ++Stats.MergedDefs;
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
      Out.push_back(std::move(I));
    }
    B.Insts = std::move(Out);
  });
  return Stats;
}

} // namespace

GVNStats epre::valueNumberSSAReference(Function &F) {
  CongruencePartition P = computeCongruencePartition(F);
  return renameToClassReps(F, P.ClassOf);
}
