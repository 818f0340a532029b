//===- gvn/DVNT.cpp -------------------------------------------------------===//

#include "gvn/DVNT.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "ir/ExprKey.h"
#include "pre/LocalizeNames.h"
#include "ssa/SSA.h"

#include <map>
#include <unordered_map>
#include <vector>

using namespace epre;

namespace {

class DVNT {
public:
  explicit DVNT(Function &F) : F(F) {}

  DVNTStats run() {
    G = CFG::compute(F);
    DT = DominatorTree::compute(F, G);
    // A block's expressions stay available while the blocks it dominates
    // are visited.
    DT.walk(
        G.rpo().front(), [&](BlockId B) { visit(B); },
        [&](BlockId) {
          for (size_t I = Log.size(); I-- > ScopeStart.back();)
            Available.erase(Log[I]);
          Log.resize(ScopeStart.back());
          ScopeStart.pop_back();
        });
    return Stats;
  }

private:
  Reg vnOf(Reg R) {
    auto It = VN.find(R);
    return It == VN.end() ? R : It->second;
  }

  /// The name computing \p K in a dominating block, or NoReg.
  Reg lookup(const ExprKey &K) const {
    auto Hit = Available.find(K);
    return Hit == Available.end() ? NoReg : Hit->second;
  }

  /// Opens \p B's scope and value-numbers the block.
  void visit(BlockId B) {
    ScopeStart.push_back(Log.size());
    BasicBlock *BB = F.block(B);

    std::vector<Instruction> Kept;
    Kept.reserve(BB->Insts.size());

    // Phis of this block, hashed by their (pred-sorted) input VNs so
    // duplicate phis collapse; meaningless phis (all inputs share one VN)
    // take that VN.
    std::map<std::vector<Reg>, Reg> PhiTable;
    for (Instruction &I : BB->Insts) {
      if (!I.isPhi())
        break;
      std::vector<std::pair<BlockId, Reg>> Inputs;
      for (unsigned J = 0; J < I.Operands.size(); ++J)
        Inputs.push_back({I.PhiBlocks[J], vnOf(I.Operands[J])});
      std::sort(Inputs.begin(), Inputs.end());
      std::vector<Reg> Sig;
      bool AllSame = !Inputs.empty();
      for (auto &[P, V] : Inputs) {
        Sig.push_back(V);
        AllSame &= V == Inputs.front().second;
      }
      // A phi input that is the phi itself does not break "meaningless".
      if (!Inputs.empty()) {
        Reg Other = NoReg;
        bool Meaningless = true;
        for (auto &[P, V] : Inputs) {
          if (V == I.Dst)
            continue;
          if (Other == NoReg)
            Other = V;
          else if (Other != V)
            Meaningless = false;
        }
        if (Meaningless && Other != NoReg) {
          VN[I.Dst] = Other;
          ++Stats.MeaninglessPhis;
          continue; // drop the phi
        }
        (void)AllSame;
      }
      auto It = PhiTable.find(Sig);
      if (It != PhiTable.end()) {
        VN[I.Dst] = It->second;
        ++Stats.RedundantPhis;
        continue; // drop the duplicate phi
      }
      PhiTable.emplace(std::move(Sig), I.Dst);
      Kept.push_back(std::move(I));
    }

    for (Instruction &I : BB->Insts) {
      if (I.isPhi())
        continue;
      // Rewrite operands to their value numbers.
      for (Reg &Op : I.Operands)
        Op = vnOf(Op);
      // Copies define variable names: they are barriers, not expressions
      // (the §2.2 discipline — variables keep their own numbers).
      if (!I.isExpression() || !I.hasDst()) {
        Kept.push_back(std::move(I));
        continue;
      }
      ExprKey K = makeExprKey(I, /*NormalizeCommutative=*/true);
      Reg Existing = lookup(K);
      if (Existing != NoReg) {
        VN[I.Dst] = Existing;
        ++Stats.Redundant;
        continue; // dominated redundancy: delete
      }
      Available.emplace(K, I.Dst);
      Log.push_back(std::move(K));
      Kept.push_back(std::move(I));
    }
    BB->Insts = std::move(Kept);

    // Adjust successor phi inputs for the edges leaving this block: the
    // value numbers of everything flowing out of B are final here, and a
    // deleted definition must not remain referenced.
    for (BlockId S : G.succs(B)) {
      BasicBlock *SB = F.block(S);
      for (Instruction &Phi : SB->Insts) {
        if (!Phi.isPhi())
          break;
        for (unsigned J = 0; J < Phi.Operands.size(); ++J)
          if (Phi.PhiBlocks[J] == B)
            Phi.Operands[J] = vnOf(Phi.Operands[J]);
      }
    }
  }

  Function &F;
  CFG G;
  DominatorTree DT;
  DVNTStats Stats;
  std::map<Reg, Reg> VN;
  /// Expressions computed in the blocks on the dominator-tree path being
  /// walked. A key is added only when absent, so leaving a block erases
  /// exactly the keys it logged since ScopeStart.back().
  std::unordered_map<ExprKey, Reg, ExprKeyHash> Available;
  std::vector<ExprKey> Log;
  std::vector<size_t> ScopeStart;
};

} // namespace

DVNTStats epre::valueNumberDominatorTreeSSA(Function &F) {
  DVNTStats Stats = DVNT(F).run();
  // Uses are rewritten to value-number representatives even when nothing is
  // deleted: treat every run as a change.
  F.bumpVersion();
  return Stats;
}

void epre::DVNTPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  SSAOptions Opts;
  Opts.FoldCopies = false; // copies are the variable-name definers
  SSABuildPass(Opts).run(F, Ctx);
  Last = valueNumberDominatorTreeSSA(F);
  SSADestroyPass().run(F, Ctx);
  // Deleting dominated redundancies can leave an expression name live
  // across a block boundary; restore the §5.1 discipline for PRE.
  LocalizeNamesPass().run(F, Ctx);
  Ctx.addStat("redundant", Last.Redundant);
  Ctx.addStat("meaningless_phis", Last.MeaninglessPhis);
  Ctx.addStat("redundant_phis", Last.RedundantPhis);
  Ctx.addStat("redundancies_found",
              Last.Redundant + Last.MeaninglessPhis + Last.RedundantPhis);
}

