//===- opt/ConstantPropagation.cpp ----------------------------------------===//
///
/// Conditional constant propagation over per-block register lattices.
/// The lattice per register is Top (no evidence yet) > Const(c) > Bottom.
/// Block inputs are the pointwise meet of the outputs of *executable*
/// predecessors, so branches already known to go one way do not pollute the
/// analysis (Wegman–Zadeck style conditional propagation, formulated without
/// requiring SSA form).
///
/// A block's input row holds only the registers live into it: no other
/// register is read before the block writes it, so the fixpoint on every
/// value that is read is the one over full rows. Phi operands are the
/// exception. A phi reads each operand's meet over *all* executable
/// predecessors, including those where the operand is dead, so every
/// register that some phi reads keeps a slot in every row.
///
//===----------------------------------------------------------------------===//

#include "opt/ConstantPropagation.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"
#include "ir/Eval.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <vector>

using namespace epre;

namespace {

struct LatVal {
  enum Kind : uint8_t { Top, Const, Bottom } K = Top;
  RtValue V;

  static LatVal top() { return {}; }
  static LatVal bottom() {
    LatVal L;
    L.K = Bottom;
    return L;
  }
  static LatVal constant(RtValue V) {
    LatVal L;
    L.K = Const;
    L.V = V;
    return L;
  }

  /// Meet; returns true if *this changed (lowered).
  bool meet(const LatVal &O) {
    if (O.K == Top || K == Bottom)
      return false;
    if (K == Top) {
      *this = O;
      return O.K != Top;
    }
    // K == Const
    if (O.K == Const && V.identical(O.V))
      return false;
    K = Bottom;
    return true;
  }
};

using LatticeRow = std::vector<LatVal>;

class SCCP {
public:
  SCCP(Function &F, const CFG &G) : F(F), G(G) {}

  bool run() {
    unsigned NB = F.numBlocks();
    buildRows();
    Scratch.assign(F.numRegs(), LatVal::top());
    BlockExec.assign(NB, false);
    Queued.assign(NB, false);

    // Entry: parameters are runtime inputs. A parameter the entry row does
    // not hold is never read before being written.
    for (unsigned K = RowBegin[0]; K < RowBegin[1]; ++K)
      if (F.isParam(RowRegs[K]))
        RowVals[K] = LatVal::bottom();

    BlockExec[0] = true;
    enqueue(0);
    for (size_t Head = 0; Head < Worklist.size(); ++Head) {
      BlockId B = Worklist[Head];
      Queued[B] = false;
      processBlock(B);
    }
    return rewrite();
  }

  /// Lattice cells loaded or met plus instructions evaluated, and the
  /// liveness walk that sized the rows.
  uint64_t Work = 0;

private:
  /// Sizes every block's input row: its live-in registers, plus every
  /// register a phi reads (see the file comment). Rows are sorted runs of
  /// RowRegs/RowVals; block B owns [RowBegin[B], RowBegin[B + 1]).
  void buildRows() {
    Liveness Live = Liveness::compute(F, G);
    Work += Live.work();
    std::vector<Reg> PhiRead;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.isPhi())
          break;
        PhiRead.insert(PhiRead.end(), I.Operands.begin(), I.Operands.end());
      }
    });
    std::sort(PhiRead.begin(), PhiRead.end());
    PhiRead.erase(std::unique(PhiRead.begin(), PhiRead.end()), PhiRead.end());

    unsigned NB = F.numBlocks();
    RowBegin.assign(NB + 1, 0);
    RowRegs.clear();
    for (BlockId B = 0; B < NB; ++B) {
      RowBegin[B] = unsigned(RowRegs.size());
      Liveness::RegList In = Live.liveIn(B);
      if (PhiRead.empty())
        RowRegs.insert(RowRegs.end(), In.begin(), In.end());
      else if (G.isReachable(B))
        std::set_union(In.begin(), In.end(), PhiRead.begin(), PhiRead.end(),
                       std::back_inserter(RowRegs));
    }
    RowBegin[NB] = unsigned(RowRegs.size());
    RowVals.assign(RowRegs.size(), LatVal::top());
  }

  /// Loads block \p B's input row into the scratch value map. Registers
  /// outside the row keep stale values from earlier blocks, which is safe:
  /// the block writes each of them before reading it.
  void loadEntry(BlockId B) {
    Work += RowBegin[B + 1] - RowBegin[B];
    for (unsigned K = RowBegin[B]; K < RowBegin[B + 1]; ++K)
      Scratch[RowRegs[K]] = RowVals[K];
  }

  void enqueue(BlockId B) {
    if (Queued[B])
      return;
    Queued[B] = true;
    Worklist.push_back(B);
  }

  /// Evaluates one instruction given the running value map; returns the
  /// value produced for its destination (if any).
  LatVal evalInst(const Instruction &I, const LatticeRow &Vals) const {
    if (I.Op == Opcode::Load)
      return LatVal::bottom();
    if (I.isPhi()) {
      // Conservative: meet over all operands (edge-precision is recovered
      // by the executable-edge handling feeding this block's In row).
      LatVal L = LatVal::top();
      for (Reg Op : I.Operands)
        L.meet(Vals[Op]);
      return L;
    }
    if (I.isCopy())
      return Vals[I.Operands[0]];
    if (!I.isExpression())
      return LatVal::bottom();
    std::vector<RtValue> Ops;
    Ops.reserve(I.Operands.size());
    for (Reg R : I.Operands) {
      const LatVal &L = Vals[R];
      if (L.K == LatVal::Top)
        return LatVal::top();
      if (L.K == LatVal::Bottom)
        return LatVal::bottom();
      Ops.push_back(L.V);
    }
    RtValue Out;
    if (!evalPure(I, Ops, Out))
      return LatVal::bottom();
    return LatVal::constant(Out);
  }

  /// Applies the block's instructions to the scratch value map (entry row
  /// pre-loaded by the caller). Phis are evaluated against the entry values
  /// simultaneously (they read their inputs in parallel, and their inputs
  /// are globals the phi writes below could clobber), so their results are
  /// buffered and stored in a second step; everything else is sequential.
  void transfer(const BasicBlock &BB) {
    Work += BB.Insts.size();
    unsigned NumPhis = BB.firstNonPhi();
    PhiVals.clear();
    for (unsigned Idx = 0; Idx < NumPhis; ++Idx)
      PhiVals.push_back(evalInst(BB.Insts[Idx], Scratch));
    for (unsigned Idx = 0; Idx < NumPhis; ++Idx)
      Scratch[BB.Insts[Idx].Dst] = PhiVals[Idx];
    for (unsigned Idx = NumPhis; Idx < BB.Insts.size(); ++Idx)
      if (BB.Insts[Idx].hasDst())
        Scratch[BB.Insts[Idx].Dst] = evalInst(BB.Insts[Idx], Scratch);
  }

  void processBlock(BlockId B) {
    const BasicBlock *BB = F.block(B);
    loadEntry(B);
    transfer(*BB);

    // Determine executable out-edges.
    const Instruction &T = BB->terminator();
    BlockId ExecSuccs[2];
    unsigned NumExec = 0;
    if (T.Op == Opcode::Br) {
      ExecSuccs[NumExec++] = T.Succs[0];
    } else if (T.Op == Opcode::Cbr) {
      const LatVal &C = Scratch[T.Operands[0]];
      if (C.K == LatVal::Const) {
        ExecSuccs[NumExec++] = C.V.I != 0 ? T.Succs[0] : T.Succs[1];
      } else if (C.K == LatVal::Bottom) {
        ExecSuccs[NumExec++] = T.Succs[0];
        ExecSuccs[NumExec++] = T.Succs[1];
      }
      // Top: no successor known executable yet.
    }

    for (unsigned E = 0; E < NumExec; ++E) {
      BlockId S = ExecSuccs[E];
      bool Changed = !BlockExec[S];
      BlockExec[S] = true;
      Work += RowBegin[S + 1] - RowBegin[S];
      for (unsigned K = RowBegin[S]; K < RowBegin[S + 1]; ++K)
        if (RowVals[K].meet(Scratch[RowRegs[K]]))
          Changed = true;
      if (Changed)
        enqueue(S);
    }
  }

  bool rewrite() {
    bool Changed = false;
    F.forEachBlock([&](BasicBlock &B) {
      if (!BlockExec[B.id()])
        return; // unreachable under the analysis; SimplifyCFG will erase
      loadEntry(B.id());
      bool RewrotePhi = false;
      unsigned NumPhis = B.firstNonPhi();
      // Phis read the entry values in parallel: evaluate them all before
      // any result lands in the scratch map.
      PhiVals.clear();
      for (unsigned Idx = 0; Idx < NumPhis; ++Idx)
        PhiVals.push_back(evalInst(B.Insts[Idx], Scratch));
      for (unsigned Idx = 0; Idx < B.Insts.size(); ++Idx) {
        Instruction &I = B.Insts[Idx];
        bool IsPhi = I.isPhi();
        LatVal L = Idx < NumPhis ? PhiVals[Idx]
                   : I.hasDst()  ? evalInst(I, Scratch)
                                 : LatVal::bottom();
        if (I.hasDst())
          Scratch[I.Dst] = L;
        bool AlreadyImm = I.Op == Opcode::LoadI || I.Op == Opcode::LoadF;
        if (I.hasDst() && L.K == LatVal::Const && !AlreadyImm &&
            (I.isExpression() || I.isCopy() || IsPhi)) {
          Reg Dst = I.Dst;
          if (Ctx && Ctx->remarksEnabled())
            Ctx->remark(RemarkKind::Fold, F, B.label(), opcodeName(I.Op),
                        L.V.isI()
                            ? strprintf("r%u folded to constant %lld", Dst,
                                        (long long)L.V.I)
                            : strprintf("r%u folded to constant %g", Dst,
                                        L.V.F));
          I = L.V.isI() ? Instruction::makeLoadI(Dst, L.V.I)
                        : Instruction::makeLoadF(Dst, L.V.F);
          RewrotePhi |= IsPhi;
          ++Folds;
          Changed = true;
        }
        if (I.Op == Opcode::Cbr) {
          const LatVal &C = Scratch[I.Operands[0]];
          if (C.K == LatVal::Const) {
            BlockId Taken = C.V.I != 0 ? I.Succs[0] : I.Succs[1];
            BlockId NotTaken = C.V.I != 0 ? I.Succs[1] : I.Succs[0];
            removePhiEntries(*F.block(NotTaken), B.id());
            if (Ctx && Ctx->remarksEnabled())
              Ctx->remark(RemarkKind::Fold, F, B.label(), opcodeName(I.Op),
                          strprintf("conditional branch folded to ^%s",
                                    F.block(Taken)->label().c_str()));
            I = Instruction::makeBr(Taken);
            F.bumpVersion(); // terminator rewrite: CFG edge removed
            ++BranchFolds;
            Changed = true;
          }
        }
      }
      // Rewriting a phi to an immediate load may have broken the
      // "phis first" layout; restore it. The load is independent of block
      // position, so moving it after the remaining phis is safe.
      if (RewrotePhi)
        std::stable_partition(B.Insts.begin(),
                              B.Insts.begin() + NumPhis,
                              [](const Instruction &I) { return I.isPhi(); });
    });
    return Changed;
  }

  Function &F;
  const CFG &G;
  std::vector<unsigned> RowBegin;   ///< per block, plus one sentinel
  std::vector<Reg> RowRegs;         ///< row slot -> register
  LatticeRow RowVals;               ///< row slot -> input value
  LatticeRow Scratch;               ///< running value map, indexed by Reg
  std::vector<LatVal> PhiVals;      ///< parallel-phi evaluation buffer
  std::vector<bool> BlockExec;
  std::vector<bool> Queued;         ///< block is on the worklist
  std::vector<BlockId> Worklist;    ///< FIFO: consumed from the front

public:
  /// Optional remark emitter (instrumented runs only).
  PassContext *Ctx = nullptr;
  unsigned Folds = 0;
  unsigned BranchFolds = 0;
};

} // namespace

void epre::SCCPPass::run(Function &F, PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  CFG G = CFG::compute(F);
  SCCP S(F, G);
  S.Ctx = &Ctx;
  bool Changed = S.run();
  LastWork = S.Work;
  Ctx.addStat("folds", S.Folds);
  Ctx.addStat("branches_folded", S.BranchFolds);
  Ctx.addStat("changed", Changed);
  if (Changed)
    F.bumpVersion();
}

