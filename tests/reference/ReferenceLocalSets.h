//===- reference/ReferenceLocalSets.h - Per-expression sets -----*- C++ -*-===//
///
/// \file
/// The test-side reference for PRE's local walk: ANTLOC, COMP and TRANSP
/// computed one expression at a time, by scanning each block for that
/// expression's computations and for definitions of its operands. PRE
/// derives all three from one left-to-right walk per block, the same walk
/// that drives its rewrite; dataflow_test requires the two to agree bit for
/// bit.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_REFERENCE_LOCALSETS_H
#define EPRE_TESTS_REFERENCE_LOCALSETS_H

#include "ReferenceCFG.h"

#include "ir/Function.h"
#include "support/BitVector.h"

#include <algorithm>
#include <vector>

namespace epre {

struct ReferenceLocalSets {
  std::vector<BitVector> ANTLOC, COMP, TRANSP;

  /// \p Names is PRE's universe: expression index to name. An expression
  /// is computed by the instructions that define its name; it is killed by
  /// those that define one of its operands. Unreachable blocks keep empty
  /// ANTLOC and COMP and a full TRANSP.
  static ReferenceLocalSets compute(const Function &F,
                                    const std::vector<Reg> &Names) {
    const unsigned NB = F.numBlocks(), NE = unsigned(Names.size());
    const ReferenceCFG G = ReferenceCFG::compute(F);
    auto reachable = [&](const BasicBlock &B) {
      return G.RPONumber[B.id()] != ~0u;
    };
    ReferenceLocalSets R;
    R.ANTLOC.assign(NB, BitVector(NE));
    R.COMP.assign(NB, BitVector(NE));
    R.TRANSP.assign(NB, BitVector(NE, true));
    for (unsigned E = 0; E < NE; ++E) {
      auto isOccurrence = [&](const Instruction &I) {
        return I.hasDst() && I.Dst == Names[E] && I.isExpression();
      };
      std::vector<Reg> Operands;
      F.forEachBlock([&](const BasicBlock &B) {
        for (const Instruction &I : B.Insts)
          if (Operands.empty() && reachable(B) && isOccurrence(I))
            Operands.assign(I.Operands.begin(), I.Operands.end());
      });
      auto kills = [&](const Instruction &I) {
        return I.hasDst() && std::find(Operands.begin(), Operands.end(),
                                       I.Dst) != Operands.end();
      };
      F.forEachBlock([&](const BasicBlock &B) {
        if (!reachable(B))
          return;
        const std::vector<Instruction> &Is = B.Insts;
        for (auto It = Is.begin(); It != Is.end(); ++It) {
          if (!isOccurrence(*It))
            continue;
          if (std::none_of(Is.begin(), It, kills))
            R.ANTLOC[B.id()].set(E);
          if (std::none_of(It + 1, Is.end(), kills))
            R.COMP[B.id()].set(E);
        }
        if (std::any_of(Is.begin(), Is.end(), kills))
          R.TRANSP[B.id()].reset(E);
      });
    }
    return R;
  }
};

} // namespace epre

#endif // EPRE_TESTS_REFERENCE_LOCALSETS_H
