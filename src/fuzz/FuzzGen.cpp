//===- fuzz/FuzzGen.cpp ---------------------------------------------------===//

#include "fuzz/FuzzGen.h"

#include "ir/ExprKey.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <cstdlib>
#include <random>
#include <unordered_map>

using namespace epre;
using namespace epre::fuzz;

namespace {

/// Memory layout shared by every generated program: two 8-word arrays, then
/// one dump word per variable (so the oracle's image comparison observes
/// every live value, not just the returned digest).
constexpr unsigned ArrayWords = 8;
constexpr int64_t IntArrayBase = 0;
constexpr int64_t FloatArrayBase = 8 * ArrayWords;

class Generator {
public:
  Generator(uint64_t Seed, const GeneratorOptions &Opts) : O(Opts), Rng(Seed) {}

  void build(Function &F) {
    this->F = &F;
    B = std::make_unique<IRBuilder>(F, F.addBlock("entry"));
    F.setReturnType(Type::I64);

    for (unsigned I = 0; I < O.NumIntParams; ++I)
      IntParams.push_back(F.addParam(Type::I64));
    for (unsigned I = 0; I < O.NumFloatParams; ++I)
      FloatParams.push_back(F.addParam(Type::F64));
    for (unsigned I = 0; I < std::max(1u, O.NumIntVars); ++I)
      IntVars.push_back(F.makeReg(Type::I64));
    for (unsigned I = 0; I < O.NumFloatVars; ++I)
      FloatVars.push_back(F.makeReg(Type::F64));
    for (unsigned I = 0; I < std::max(1u, O.MaxLoopNest); ++I)
      Counters.push_back(F.makeReg(Type::I64));

    // Prologue: give every variable a parameter/constant-derived value
    // (registers are zero-initialized by the interpreter, but seeded values
    // make the early statements interesting).
    for (Reg V : IntVars)
      B->copyTo(V, genInt(1));
    for (Reg V : FloatVars)
      B->copyTo(V, clampF(genFloat(1)));
    VarsLive = true;

    StmtBudget = O.MaxStmts;
    while (takeStmt())
      genStmt(0);

    epilogue();
  }

private:
  // --- randomness -----------------------------------------------------------

  unsigned range(unsigned N) { return N ? unsigned(Rng() % N) : 0; }
  unsigned pct() { return range(100); }
  bool chance(unsigned Percent) { return pct() < Percent; }

  bool takeStmt() {
    if (StmtBudget == 0)
      return false;
    --StmtBudget;
    return true;
  }

  // --- hashed-naming emission ----------------------------------------------

  /// Emits \p I with the §2.2 discipline: the destination register is a
  /// function of the lexical expression, reused on re-emission.
  Reg keyed(Instruction I, Type DstTy) {
    ExprKey K = makeExprKey(I, /*NormalizeCommutative=*/true);
    auto [It, New] = ExprMap.try_emplace(K, NoReg);
    if (New)
      It->second = F->makeReg(DstTy);
    I.Dst = It->second;
    B->emit(std::move(I));
    return It->second;
  }

  Reg constI(int64_t V) {
    return keyed(Instruction::makeLoadI(NoReg, V), Type::I64);
  }
  Reg constF(double V) {
    return keyed(Instruction::makeLoadF(NoReg, V), Type::F64);
  }
  Reg binI(Opcode Op, Reg L, Reg R) {
    return keyed(Instruction::makeBinary(Op, Type::I64, NoReg, L, R),
                 Type::I64);
  }
  Reg binF(Opcode Op, Reg L, Reg R) {
    return keyed(Instruction::makeBinary(Op, Type::F64, NoReg, L, R),
                 isComparison(Op) ? Type::I64 : Type::F64);
  }
  Reg unI(Opcode Op, Reg S) {
    return keyed(Instruction::makeUnary(Op, Type::I64, NoReg, S), Type::I64);
  }
  Reg unF(Opcode Op, Reg S) {
    return keyed(Instruction::makeUnary(Op, Type::F64, NoReg, S), Type::F64);
  }
  Reg callF(Intrinsic Intr, Reg S) {
    return keyed(Instruction::makeCall(Intr, Type::F64, NoReg, {S}),
                 Type::F64);
  }

  // --- expressions ----------------------------------------------------------

  Reg intLeaf() {
    unsigned R = range(3);
    if (R == 0 && !IntParams.empty())
      return IntParams[range(unsigned(IntParams.size()))];
    if (R == 1 && VarsLive)
      return IntVars[range(unsigned(IntVars.size()))];
    static const int64_t Pool[] = {0, 1, 2, 3, 5, 7, 8, 13, 63, -1, -4, 100};
    return constI(Pool[range(sizeof(Pool) / sizeof(Pool[0]))]);
  }

  Reg floatLeaf() {
    unsigned R = range(3);
    if (R == 0 && !FloatParams.empty())
      return FloatParams[range(unsigned(FloatParams.size()))];
    if (R == 1 && VarsLive && !FloatVars.empty())
      return FloatVars[range(unsigned(FloatVars.size()))];
    static const double Pool[] = {0.0, 0.5, 1.0, 1.25, 2.0, -0.75, 3.5, -2.5};
    return constF(Pool[range(sizeof(Pool) / sizeof(Pool[0]))]);
  }

  /// Integer arithmetic wraps, so every pipeline config is bit-exact on I64;
  /// the only constraint is trap freedom: Div/Mod divisors are masked into
  /// [1, 8], and I64 Abs (which traps on INT64_MIN) is never emitted.
  Reg genInt(unsigned Depth) {
    if (Depth == 0 || chance(30))
      return intLeaf();
    unsigned R = range(12);
    if (R < 2)
      return unI(R == 0 ? Opcode::Neg : Opcode::Not, genInt(Depth - 1));
    if (R == 2) { // safened division / remainder
      Reg Num = genInt(Depth - 1);
      Reg Masked = binI(Opcode::And, genInt(Depth - 1), constI(7));
      Reg Divisor = binI(Opcode::Add, Masked, constI(1));
      return binI(chance(50) ? Opcode::Div : Opcode::Mod, Num, Divisor);
    }
    if (R == 3)
      return genCond(Depth - 1); // comparisons are I64 expressions
    static const Opcode Pool[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                  Opcode::And, Opcode::Or,  Opcode::Xor,
                                  Opcode::Shl, Opcode::Shr, Opcode::Min,
                                  Opcode::Max};
    Opcode Op = Pool[range(sizeof(Pool) / sizeof(Pool[0]))];
    return binI(Op, genInt(Depth - 1), genInt(Depth - 1));
  }

  /// F64 trees stay within magnitudes where the oracle's relative tolerance
  /// absorbs reassociation rounding (leaves are clamped to [-8, 8], so even
  /// a full-depth product is ~2^24 and cancellation error stays far below
  /// the 1e-6 absolute floor). Discontinuous operations (Floor, Sign, F2I,
  /// float comparisons) are never emitted: an ulp of difference across the
  /// discontinuity would diverge control flow or a stored value by a full
  /// unit, which the oracle would misreport as a miscompile.
  Reg genFloat(unsigned Depth) {
    if (Depth == 0 || chance(30))
      return floatLeaf();
    if (chance(O.IntrinsicPercent)) {
      unsigned R = range(4);
      if (R == 0)
        return callF(Intrinsic::Sqrt,
                     callF(Intrinsic::Abs, genFloat(Depth - 1)));
      if (R == 1)
        return callF(Intrinsic::Sin, genFloat(Depth - 1));
      if (R == 2)
        return callF(Intrinsic::Cos, genFloat(Depth - 1));
      return callF(Intrinsic::Abs, genFloat(Depth - 1));
    }
    unsigned R = range(8);
    if (R == 0)
      return unF(Opcode::Neg, genFloat(Depth - 1));
    if (R == 1) { // safened division: |denominator| + 1 >= 1
      Reg Num = genFloat(Depth - 1);
      Reg Den = binF(Opcode::Add, callF(Intrinsic::Abs, genFloat(Depth - 1)),
                     constF(1.0));
      return binF(Opcode::Div, Num, Den);
    }
    static const Opcode Pool[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                  Opcode::Min, Opcode::Max};
    Opcode Op = Pool[range(sizeof(Pool) / sizeof(Pool[0]))];
    return binF(Op, genFloat(Depth - 1), genFloat(Depth - 1));
  }

  /// Branch conditions are always integer comparisons: float comparisons
  /// would let reassociation rounding flip a branch.
  Reg genCond(unsigned Depth) {
    static const Opcode Pool[] = {Opcode::CmpEq, Opcode::CmpNe, Opcode::CmpLt,
                                  Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe};
    Opcode Op = Pool[range(sizeof(Pool) / sizeof(Pool[0]))];
    return binI(Op, genInt(Depth), genInt(Depth));
  }

  Reg clampF(Reg V) {
    return binF(Opcode::Max, binF(Opcode::Min, V, constF(8.0)), constF(-8.0));
  }

  /// addr = base + ((idx & 7) << 3): every access lands inside its array.
  Reg arrayAddr(int64_t Base) {
    Reg Masked = binI(Opcode::And, genInt(2), constI(ArrayWords - 1));
    Reg Off = binI(Opcode::Shl, Masked, constI(3));
    return Base == 0 ? Off : binI(Opcode::Add, Off, constI(Base));
  }

  // --- statements -----------------------------------------------------------

  void genStmt(unsigned LoopDepth) {
    unsigned R = pct();
    if (R < O.IfPercent) {
      genIf(LoopDepth);
      return;
    }
    if (R < O.IfPercent + O.LoopPercent && LoopDepth < O.MaxLoopNest) {
      genLoop(LoopDepth);
      return;
    }
    genSimple();
  }

  void genSimple() {
    bool Float = O.NumFloatVars > 0 && chance(O.FloatPercent);
    if (chance(O.ArrayPercent)) {
      int64_t Base = Float ? FloatArrayBase : IntArrayBase;
      Reg Addr = arrayAddr(Base);
      if (chance(50)) { // store
        Reg V = Float ? genFloat(O.MaxExprDepth) : genInt(O.MaxExprDepth);
        B->store(V, Addr);
      } else { // load into a variable
        Reg V = B->load(Float ? Type::F64 : Type::I64, Addr);
        if (Float)
          B->copyTo(FloatVars[range(unsigned(FloatVars.size()))], clampF(V));
        else
          B->copyTo(IntVars[range(unsigned(IntVars.size()))], V);
      }
      return;
    }
    if (Float)
      B->copyTo(FloatVars[range(unsigned(FloatVars.size()))],
                clampF(genFloat(O.MaxExprDepth)));
    else
      B->copyTo(IntVars[range(unsigned(IntVars.size()))],
                genInt(O.MaxExprDepth));
  }

  /// A bounded arm of an if or loop body.
  void genArm(unsigned LoopDepth) {
    unsigned N = 1 + range(3);
    while (N-- && takeStmt())
      genStmt(LoopDepth);
  }

  void genIf(unsigned LoopDepth) {
    Reg C = genCond(2);
    BasicBlock *Then = B->makeBlock();
    BasicBlock *Merge = B->makeBlock();
    // No else arm leaves the fall-through edge critical: its source has two
    // successors and the merge has two predecessors — exactly the edge
    // shape LCM must split to place an insertion.
    bool HasElse = !chance(O.CriticalEdgePercent);
    BasicBlock *Else = HasElse ? B->makeBlock() : nullptr;
    B->cbr(C, Then, HasElse ? Else : Merge);
    B->setInsertPoint(Then);
    genArm(LoopDepth);
    B->br(Merge);
    if (HasElse) {
      B->setInsertPoint(Else);
      genArm(LoopDepth);
      B->br(Merge);
    }
    B->setInsertPoint(Merge);
  }

  void genLoop(unsigned LoopDepth) {
    Reg I = Counters[LoopDepth];
    B->copyTo(I, constI(0));
    BasicBlock *Header = B->makeBlock();
    BasicBlock *Body = B->makeBlock();
    BasicBlock *Exit = B->makeBlock();
    B->br(Header);

    B->setInsertPoint(Header);
    Reg Trip = constI(int64_t(1 + range(O.MaxLoopTrip)));
    B->cbr(binI(Opcode::CmpLt, I, Trip), Body, Exit);

    B->setInsertPoint(Body);
    if (chance(O.LoopBreakPercent)) {
      // Early exit: the edge into Exit is critical (two-successor source,
      // two-predecessor target).
      BasicBlock *Cont = B->makeBlock();
      B->cbr(genCond(2), Cont, Exit);
      B->setInsertPoint(Cont);
    }
    genArm(LoopDepth + 1);
    B->copyTo(I, binI(Opcode::Add, I, constI(1)));
    B->br(Header);

    B->setInsertPoint(Exit);
  }

  /// Dump every variable to its typed memory slot, then return an integer
  /// digest folded over the integer state.
  void epilogue() {
    int64_t Addr = IntDumpBase();
    for (Reg V : IntVars) {
      B->store(V, constI(Addr));
      Addr += 8;
    }
    Addr = FloatDumpBase();
    for (Reg V : FloatVars) {
      B->store(V, constI(Addr));
      Addr += 8;
    }
    Reg Acc = IntVars[0];
    for (unsigned I = 1; I < IntVars.size(); ++I)
      Acc = binI(I % 2 ? Opcode::Add : Opcode::Xor, Acc, IntVars[I]);
    for (Reg P : IntParams)
      Acc = binI(Opcode::Add, Acc, P);
    B->ret(Acc);
  }

public:
  int64_t IntDumpBase() const { return FloatArrayBase + 8 * ArrayWords; }
  int64_t FloatDumpBase() const {
    return IntDumpBase() + 8 * int64_t(IntVars.size());
  }
  size_t memBytes() const {
    return size_t(FloatDumpBase() + 8 * int64_t(FloatVars.size()));
  }

  std::vector<Type> memWords() const {
    std::vector<Type> W(2 * ArrayWords + IntVars.size() + FloatVars.size(),
                        Type::I64);
    for (unsigned I = 0; I < ArrayWords; ++I)
      W[ArrayWords + I] = Type::F64;
    for (unsigned I = 0; I < FloatVars.size(); ++I)
      W[2 * ArrayWords + IntVars.size() + I] = Type::F64;
    return W;
  }

  std::vector<RtValue> makeArgs() {
    std::vector<RtValue> Args;
    for (unsigned I = 0; I < O.NumIntParams; ++I)
      Args.push_back(RtValue::ofI(int64_t(Rng() % 201) - 100));
    for (unsigned I = 0; I < O.NumFloatParams; ++I)
      Args.push_back(RtValue::ofF(double(Rng() % 641) / 80.0 - 4.0));
    return Args;
  }

private:
  GeneratorOptions O;
  std::mt19937_64 Rng;
  Function *F = nullptr;
  std::unique_ptr<IRBuilder> B;
  std::unordered_map<ExprKey, Reg, ExprKeyHash> ExprMap;
  std::vector<Reg> IntParams, FloatParams, IntVars, FloatVars, Counters;
  bool VarsLive = false;
  unsigned StmtBudget = 0;
};

/// Shape "cfg": a random graph of blocks over integer variables, written
/// as text so the program keeps what the parser folds. The one exit, ^x,
/// stores every variable to the dump area and returns %v1.
class CFGGenerator {
public:
  CFGGenerator(uint64_t Seed, const GeneratorOptions &Opts)
      : Rng(Seed), NumVars(std::max(1u, Opts.NumIntVars)),
        NumBlocks(3 + range(std::max(3u, Opts.MaxCFGBlocks) - 2)) {}

  std::string build() {
    Nodes.resize(NumBlocks);
    for (unsigned B = 0; B < NumBlocks; ++B)
      genNode(B, Nodes[B]);
    markRetreatingEdges();

    std::string S = "func @fuzz(%p:i64, %fuel:i64";
    for (unsigned V = 1; V <= NumVars; ++V)
      S += strprintf(", %%v%u:i64", V);
    S += ") -> i64 {\n";
    for (unsigned B = 0; B < NumBlocks; ++B)
      S += strprintf("^b%u:\n", B) + Nodes[B].Body + terminator(B, Nodes[B]);
    S += FuelBlocks;
    if (range(100) < 25)
      S += deadPhiBlocks();
    S += "^x:\n";
    for (unsigned V = 0; V < NumVars; ++V)
      S += strprintf("  %%t_c%u:i64 = loadi %u\n  store %%v%u -> %%t_c%u\n",
                     8 * V, 8 * V, V + 1, 8 * V);
    return S + "  ret %v1\n}\n";
  }

  size_t memBytes() const { return 8 * size_t(NumVars); }

  /// %p, then %fuel (a loop may re-enter the entry, so the fuel comes in
  /// as an argument), then the variables.
  std::vector<RtValue> makeArgs() {
    std::vector<RtValue> Args{RtValue::ofI(int64_t(Rng() % 201) - 100),
                              RtValue::ofI(int64_t(8 + range(25)))};
    for (unsigned I = 0; I < NumVars; ++I)
      Args.push_back(RtValue::ofI(int64_t(Rng() % 201) - 100));
    return Args;
  }

private:
  /// One block before the fuel checks: its body, and a terminator that is
  /// `br ^x` (Op Ret), `br` or `cbr` to Succ; Back marks the retreating
  /// slots.
  struct Node {
    std::string Body;
    std::string Cond;
    Opcode Op = Opcode::Ret;
    unsigned Succ[2] = {0, 0};
    bool Back[2] = {false, false};
  };

  unsigned range(unsigned N) { return unsigned(Rng() % N); }

  /// Expressions over the variables, named by their lexical form (§2.2),
  /// and copies of them into variables. Nothing here traps.
  void genNode(unsigned B, Node &N) {
    static const char *Ops[] = {"add", "sub", "mul"};
    std::vector<std::string> Defined;
    for (unsigned I = 0, Len = range(6); I < Len; ++I) {
      if (range(10) < 6) {
        const char *Op = Ops[range(3)];
        unsigned A = 1 + range(NumVars), C = 1 + range(NumVars);
        Defined.push_back(strprintf("%%t_%s_%u_%u", Op, A, C));
        N.Body += strprintf("  %s:i64 = %s %%v%u, %%v%u\n",
                            Defined.back().c_str(), Op, A, C);
      } else if (!Defined.empty()) {
        unsigned V = 1 + range(NumVars);
        const std::string &E = Defined[range(unsigned(Defined.size()))];
        N.Body += strprintf("  %%v%u:i64 = copy %s\n", V, E.c_str());
      }
    }
    unsigned T = range(100);
    if (B == NumBlocks - 1 || T < 15)
      return; // br ^x
    N.Succ[0] = range(NumBlocks);
    if (T < 50) {
      N.Op = Opcode::Br;
      return;
    }
    N.Op = Opcode::Cbr;
    // A quarter of the branches name one block twice; the parser folds
    // them.
    N.Succ[1] = range(4) == 0 ? N.Succ[0] : range(NumBlocks);
    if (range(10) < 3) {
      N.Cond = "%p";
      return;
    }
    unsigned A = 1 + range(NumVars), C = 1 + range(NumVars);
    N.Cond = strprintf("%%t_cmplt_%u_%u", A, C);
    N.Body += "  " + N.Cond + strprintf(":i64 = cmplt %%v%u, %%v%u\n", A, C);
  }

  /// Marks the edges a depth-first walk from the entry finds retreating.
  /// The other reachable edges form a DAG, so a fuel check on each
  /// retreating edge ends every cycle.
  void markRetreatingEdges() {
    enum : uint8_t { New, OnStack, Done };
    std::vector<uint8_t> State(NumBlocks, New);
    std::vector<std::pair<unsigned, unsigned>> Stack{{0, 0}};
    State[0] = OnStack;
    while (!Stack.empty()) {
      auto [B, Slot] = Stack.back();
      Node &N = Nodes[B];
      unsigned NumSuccs = N.Op == Opcode::Cbr ? 2 : N.Op == Opcode::Br;
      if (Slot == NumSuccs) {
        State[B] = Done;
        Stack.pop_back();
        continue;
      }
      ++Stack.back().second;
      unsigned S = N.Succ[Slot];
      if (State[S] == OnStack) {
        N.Back[Slot] = true;
      } else if (State[S] == New) {
        State[S] = OnStack;
        Stack.push_back({S, 0});
      }
    }
  }

  /// Spends one unit of fuel, then goes on to ^b<To> while some is left
  /// and leaves for ^x when none is.
  static std::string fuelCheck(unsigned To) {
    return "  %t_c1:i64 = loadi 1\n"
           "  %t_sub_fuel_c1:i64 = sub %fuel, %t_c1\n"
           "  %fuel:i64 = copy %t_sub_fuel_c1\n"
           "  %t_c0:i64 = loadi 0\n"
           "  %t_cmpgt_fuel_c0:i64 = cmpgt %fuel, %t_c0\n" +
           strprintf("  cbr %%t_cmpgt_fuel_c0, ^b%u, ^x\n", To);
  }

  /// Block \p B's terminator. A `br` along a retreating edge checks the
  /// fuel in \p B itself, which keeps a self-loop a self-loop; a `cbr`
  /// sends each retreating slot through a fuel block of its own, one per
  /// target, so a cbr naming one block twice still does after the split.
  std::string terminator(unsigned B, const Node &N) {
    if (N.Op == Opcode::Ret)
      return "  br ^x\n";
    if (N.Op == Opcode::Br)
      return N.Back[0] ? fuelCheck(N.Succ[0])
                       : strprintf("  br ^b%u\n", N.Succ[0]);
    std::string Target[2];
    for (unsigned I = 0; I < 2; ++I) {
      Target[I] = strprintf("b%u", N.Succ[I]);
      if (!N.Back[I])
        continue;
      Target[I] = strprintf("f%u_%u", B, N.Succ[I]);
      if (I == 0 || Target[0] != Target[1])
        FuelBlocks += "^" + Target[I] + ":\n" + fuelCheck(N.Succ[I]);
    }
    return "  cbr " + N.Cond + ", ^" + Target[0] + ", ^" + Target[1] + "\n";
  }

  /// Two blocks no path from the entry reaches: ^d1 starts with phis over
  /// ^d0's edge (listed twice when ^d0's cbr names ^d1 twice) and, when
  /// ^d1 loops on itself, its own edge; ^d1 then branches into the live
  /// blocks.
  std::string deadPhiBlocks() {
    bool Twice = range(2) == 0, SelfLoop = range(2) == 0;
    std::string S = Twice ? "^d0:\n  cbr %p, ^d1, ^d1\n^d1:\n"
                          : "^d0:\n  br ^d1\n^d1:\n";
    for (unsigned I = 0, N = 1 + range(2); I < N; ++I) {
      unsigned Src = 1 + range(NumVars), Dst = 1 + range(NumVars);
      S += strprintf("  %%v%u:i64 = phi [%%v%u, ^d0]", Dst, Src);
      if (Twice)
        S += strprintf(", [%%v%u, ^d0]", Src);
      if (SelfLoop)
        S += strprintf(", [%%v%u, ^d1]", 1 + range(NumVars));
      S += "\n";
    }
    unsigned Live = range(NumBlocks);
    return S + (SelfLoop ? strprintf("  cbr %%p, ^d1, ^b%u\n", Live)
                         : strprintf("  br ^b%u\n", Live));
  }

  std::mt19937_64 Rng;
  const unsigned NumVars;
  const unsigned NumBlocks;
  std::vector<Node> Nodes;
  std::string FuelBlocks;
};

} // namespace

std::vector<std::string> fuzz::generatorShapeNames() {
  return {"small", "branchy", "loopy", "phiweb", "intonly", "arrays"};
}

bool fuzz::shapeOptions(const std::string &Shape, GeneratorOptions &Opts) {
  GeneratorOptions O;
  if (Shape == "small") {
    O.MaxStmts = 10;
    O.MaxExprDepth = 2;
    O.MaxLoopNest = 1;
  } else if (Shape == "branchy") {
    O.MaxStmts = 28;
    O.IfPercent = 50;
    O.CriticalEdgePercent = 60;
    O.LoopPercent = 8;
    O.MaxLoopNest = 1;
  } else if (Shape == "loopy") {
    O.MaxStmts = 22;
    O.LoopPercent = 40;
    O.LoopBreakPercent = 45;
  } else if (Shape == "phiweb") {
    // Many live variables and many joins: SSA construction at the
    // reassociation levels turns every join into a dense phi web.
    O.MaxStmts = 30;
    O.NumIntVars = 8;
    O.NumFloatVars = 5;
    O.IfPercent = 45;
    O.CriticalEdgePercent = 50;
    O.LoopPercent = 15;
  } else if (Shape == "intonly") {
    // No F64 anywhere: every config, including FP reassociation, must be
    // bit-exact.
    O.FloatPercent = 0;
    O.NumFloatVars = 0;
    O.NumFloatParams = 0;
    O.IntrinsicPercent = 0;
  } else if (Shape == "arrays") {
    O.ArrayPercent = 65;
  } else if (Shape == "cfg") {
    O.MaxCFGBlocks = 9;
    O.NumIntVars = 3;
  } else {
    return false;
  }
  Opts = O;
  return true;
}

FuzzProgram fuzz::generateProgram(uint64_t Seed, const GeneratorOptions &Opts,
                                  const std::string &ShapeName) {
  FuzzProgram P;
  P.Seed = Seed;
  P.Shape = ShapeName;
  std::vector<std::string> Errors;
  if (Opts.MaxCFGBlocks) {
    CFGGenerator G(Seed, Opts);
    P.Text = G.build();
    P.MemBytes = G.memBytes();
    P.Args = G.makeArgs();
    ParseResult R = parseModule(P.Text);
    Errors = R.ok() ? verifyModule(*R.M, SSAMode::Relaxed)
                    : std::vector<std::string>{R.Error};
  } else {
    Module M;
    Generator G(Seed, Opts);
    G.build(*M.addFunction("fuzz"));
    Errors = verifyModule(M, SSAMode::NoSSA);
    P.Text = printModule(M);
    P.MemBytes = G.memBytes();
    P.MemWords = G.memWords();
    P.Args = G.makeArgs();
  }
  if (!Errors.empty()) {
    std::fprintf(stderr,
                 "fuzz generator produced invalid IR (seed %llu, shape %s):\n",
                 (unsigned long long)Seed, ShapeName.c_str());
    for (const std::string &E : Errors)
      std::fprintf(stderr, "  %s\n", E.c_str());
    std::fprintf(stderr, "%s", P.Text.c_str());
    std::abort();
  }
  return P;
}
