//===- tests/pre_test.cpp - Partial redundancy elimination ----------------===//

#include "fuzz/FuzzGen.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pre/MaxFlow.h"
#include "pre/PRE.h"
#include "suite/Suite.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>

using namespace epre;
using epre::test::runPass;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

unsigned countOp(const Function &F, Opcode Op) {
  unsigned N = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      N += I.Op == Op;
  });
  return N;
}

// The paper's §2 example: x+y available on one arm only, recomputed after
// the join. PRE must insert on the other arm's edge and delete the join
// computation — never lengthening any path.
TEST(PRE, ConvertsPartialToFullRedundancy) {
  auto M = parse(R"(
func @f(%p:i64, %x:i64, %y:i64) -> i64 {
^e:
  cbr %p, ^a, ^b
^a:
  %t:i64 = add %x, %y
  %u1:i64 = copy %t
  br ^j
^b:
  %u2:i64 = loadi 5
  br ^j
^j:
  %t:i64 = add %x, %y
  %r:i64 = add %t, %t
  ret %r
}
)");
  Function &F = *M->Functions[0];
  EXPECT_EQ(countOp(F, Opcode::Add), 3u);
  PREStats S = runPass(F, PREPass()).lastStats();
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
      << printFunction(F);
  EXPECT_EQ(S.Inserted, 1u);
  EXPECT_EQ(S.Deleted, 1u);
  // Static count of x+y computations is unchanged (one per path)...
  EXPECT_EQ(countOp(F, Opcode::Add), 3u);
  // ...but the ^j block no longer computes it.
  bool JoinComputes = false;
  for (const Instruction &I : F.block(3)->Insts)
    if (I.Op == Opcode::Add && I.Dst != I.Operands[0])
      JoinComputes |= I.Operands[0] == F.params()[1];
  EXPECT_FALSE(JoinComputes);
  // Behaviour identical on both paths.
  MemoryImage Mem(0);
  for (int64_t P : {0, 1}) {
    ExecResult R = interpret(
        F, {RtValue::ofI(P), RtValue::ofI(3), RtValue::ofI(4)}, Mem);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ReturnValue.I, 14);
  }
}

TEST(PRE, HoistsLoopInvariant) {
  auto M = parse(R"(
func @f(%x:i64, %y:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  %t:i64 = add %x, %y
  %s:i64 = add %s, %t
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^ex
^ex:
  ret %s
}
)");
  Function &F = *M->Functions[0];
  MemoryImage Mem(0);
  std::vector<RtValue> Args = {RtValue::ofI(3), RtValue::ofI(4),
                               RtValue::ofI(50)};
  uint64_t OpsBefore = interpret(F, Args, Mem).DynOps;
  int64_t ValBefore = interpret(F, Args, Mem).ReturnValue.I;

  PREStats S{};
  for (int I = 0; I < 4; ++I) {
    PREStats T = runPass(F, PREPass()).lastStats();
    S.Inserted += T.Inserted;
    S.Deleted += T.Deleted;
    if (!T.Inserted && !T.Deleted)
      break;
  }
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  EXPECT_GT(S.Deleted, 0u);
  ExecResult After = interpret(F, Args, Mem);
  EXPECT_EQ(After.ReturnValue.I, ValBefore);
  EXPECT_LT(After.DynOps, OpsBefore); // t and the loadi left the loop
}

TEST(PRE, NeverLengthensAPath) {
  // x+y on one arm only, never after the join: inserting on the other arm
  // would lengthen it. LCM must not insert at all.
  auto M = parse(R"(
func @f(%p:i64, %x:i64, %y:i64) -> i64 {
^e:
  cbr %p, ^a, ^b
^a:
  %t:i64 = add %x, %y
  %u:i64 = copy %t
  br ^j
^b:
  %u:i64 = loadi 0
  br ^j
^j:
  ret %u
}
)");
  Function &F = *M->Functions[0];
  PREStats S = runPass(F, PREPass()).lastStats();
  EXPECT_EQ(S.Inserted, 0u);
  EXPECT_EQ(S.Deleted, 0u);
}

TEST(PRE, LocalCSEWithinBlock) {
  auto M = parse(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %t:i64 = add %x, %y
  %a:i64 = copy %t
  %t:i64 = add %x, %y
  %b:i64 = copy %t
  %r:i64 = add %a, %b
  ret %r
}
)");
  Function &F = *M->Functions[0];
  PREStats S = runPass(F, PREPass()).lastStats();
  EXPECT_EQ(S.Deleted, 1u);
  MemoryImage Mem(0);
  EXPECT_EQ(
      interpret(F, {RtValue::ofI(1), RtValue::ofI(2)}, Mem).ReturnValue.I,
      6);
}

TEST(PRE, KillsBlockRedundancy) {
  // x+y recomputed after x is redefined: NOT redundant; must stay.
  auto M = parse(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %t:i64 = add %x, %y
  %a:i64 = copy %t
  %x:i64 = add %x, %a
  %t:i64 = add %x, %y
  ret %t
}
)");
  Function &F = *M->Functions[0];
  PREStats S = runPass(F, PREPass()).lastStats();
  EXPECT_EQ(S.Deleted, 0u);
}

/// Runs PRE on the single function of \p Src and returns its stats.
PREStats universeOf(const char *Src) {
  auto M = parse(Src);
  return runPass(*M->Functions[0], PREPass()).lastStats();
}

TEST(PRE, UniverseRejectsInconsistentNames) {
  // One register defined by two different expressions: not a §2.2 name.
  auto M = parse(R"(
func @f(%x:i64, %y:i64, %p:i64) -> i64 {
^e:
  cbr %p, ^a, ^b
^a:
  %t:i64 = add %x, %y
  br ^j
^b:
  %t:i64 = mul %x, %y
  br ^j
^j:
  %t2:i64 = add %x, %y
  %r:i64 = add %t, %t2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  PREStats S = runPass(F, PREPass()).lastStats();
  // %t2 and %r remain; %t's cross-block use is not counted as a §5.1 drop
  // because %t was never a candidate.
  EXPECT_EQ(S.UniverseSize, 2u);
  EXPECT_EQ(S.DroppedUnsafe, 0u);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  MemoryImage Mem(0);
  for (int64_t P : {0, 1}) {
    ExecResult R = interpret(
        F, {RtValue::ofI(3), RtValue::ofI(4), RtValue::ofI(P)}, Mem);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ReturnValue.I, P ? 14 : 19);
  }

  // A self-referential name can never move. It is rejected before the §5.1
  // filter, so its uses with no local definition before them are not
  // counted as drops.
  S = universeOf(R"(
func @f(%x:i64, %n:i64) -> i64 {
^e:
  %t:i64 = add %x, %n
  br ^l
^l:
  %s:i64 = add %s, %x
  %c:i64 = cmplt %s, %n
  cbr %c, ^l, ^x
^x:
  ret %s
}
)");
  EXPECT_EQ(S.UniverseSize, 2u); // %t, %c
  EXPECT_EQ(S.DroppedUnsafe, 0u);

  // A parameter is a variable even when an expression redefines it.
  S = universeOf(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %x:i64 = add %y, %y
  br ^b
^b:
  %t:i64 = mul %x, %y
  ret %t
}
)");
  EXPECT_EQ(S.UniverseSize, 1u); // %t
  EXPECT_EQ(S.DroppedUnsafe, 0u);

  // A conflicting definition in an unreachable block is never read: %t
  // stays a §2.2 name.
  S = universeOf(R"(
func @f(%x:i64, %y:i64) -> i64 {
^e:
  %t:i64 = add %x, %y
  ret %t
^dead:
  %t:i64 = mul %x, %y
  ret %t
}
)");
  EXPECT_EQ(S.UniverseSize, 1u); // %t
  EXPECT_EQ(S.DroppedUnsafe, 0u);
}

TEST(PRE, Sec51FilterDropsCrossBlockNames) {
  auto M = parse(R"(
func @f(%p:i64, %x:i64) -> i64 {
^e:
  %t:i64 = add %x, %x
  cbr %p, ^a, ^j
^a:
  %x:i64 = loadi 100
  %t:i64 = add %x, %x
  br ^j
^j:
  %u:i64 = copy %t
  ret %u
}
)");
  Function &F = *M->Functions[0];
  PREStats S = runPass(F, PREPass()).lastStats();
  EXPECT_EQ(S.UniverseSize, 0u);
  EXPECT_EQ(S.DroppedUnsafe, 1u);
  // The dangerous name must be untouched on both paths.
  MemoryImage Mem(0);
  EXPECT_EQ(
      interpret(F, {RtValue::ofI(0), RtValue::ofI(7)}, Mem).ReturnValue.I,
      14);
  EXPECT_EQ(
      interpret(F, {RtValue::ofI(1), RtValue::ofI(7)}, Mem).ReturnValue.I,
      200);

  // %t is used before its local definition in ^a and again in ^b: one
  // dropped name, counted once.
  S = universeOf(R"(
func @f(%p:i64, %x:i64) -> i64 {
^e:
  %t:i64 = add %x, %x
  cbr %p, ^a, ^b
^a:
  %u:i64 = mul %t, %x
  %t:i64 = add %x, %x
  br ^j
^b:
  %v:i64 = sub %t, %x
  %t:i64 = add %x, %x
  br ^j
^j:
  ret %x
}
)");
  EXPECT_EQ(S.UniverseSize, 2u); // %u, %v
  EXPECT_EQ(S.DroppedUnsafe, 1u);
}

TEST(PRE, CriticalEdgeInsertionSplits) {
  // Insertion needed on a critical edge: PRE must split it, not push the
  // computation onto the other path.
  auto M = parse(R"(
func @f(%p:i64, %q:i64, %x:i64, %y:i64) -> i64 {
^e:
  cbr %p, ^a, ^j
^a:
  %t:i64 = add %x, %y
  %u:i64 = copy %t
  cbr %q, ^j, ^other
^j:
  %t:i64 = add %x, %y
  %r:i64 = add %t, %t
  ret %r
^other:
  %z:i64 = loadi 0
  ret %z
}
)");
  Function &F = *M->Functions[0];
  unsigned BlocksBefore = 0;
  F.forEachBlock([&](BasicBlock &) { ++BlocksBefore; });
  PREStats S = runPass(F, PREPass()).lastStats();
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
      << printFunction(F);
  MemoryImage Mem(0);
  for (int64_t P : {0, 1})
    for (int64_t Q : {0, 1}) {
      ExecResult R = interpret(F,
                               {RtValue::ofI(P), RtValue::ofI(Q),
                                RtValue::ofI(3), RtValue::ofI(4)},
                               Mem);
      ASSERT_TRUE(R.ok());
      int64_t Expect = (P && Q) || !P ? 14 : 0;
      EXPECT_EQ(R.ReturnValue.I, Expect) << P << "," << Q;
    }
  (void)S;
  (void)BlocksBefore;
}

/// All three strategies must preserve semantics on the same programs.
class PREStrategies : public testing::TestWithParam<PREStrategy> {};

TEST_P(PREStrategies, PreserveSemantics) {
  const char *Src = R"(
func @f(%p:i64, %x:i64, %y:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  %t:i64 = add %x, %y
  %s:i64 = add %s, %t
  cbr %p, ^then, ^tail
^then:
  %t:i64 = add %x, %y
  %s:i64 = add %s, %t
  br ^tail
^tail:
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^ex
^ex:
  ret %s
}
)";
  for (int64_t P : {0, 1}) {
    auto M = parse(Src);
    Function &F = *M->Functions[0];
    MemoryImage Mem(0);
    std::vector<RtValue> Args = {RtValue::ofI(P), RtValue::ofI(3),
                                 RtValue::ofI(4), RtValue::ofI(20)};
    int64_t Before = interpret(F, Args, Mem).ReturnValue.I;
    runPass(F, PREPass(GetParam()));
    EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
        << printFunction(F);
    ExecResult R = interpret(F, Args, Mem);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ReturnValue.I, Before);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PREStrategies,
                         testing::Values(PREStrategy::LazyCodeMotion,
                                         PREStrategy::MorelRenvoise,
                                         PREStrategy::GlobalCSE,
                                         PREStrategy::Speculative),
                         [](const testing::TestParamInfo<PREStrategy> &I) {
                           switch (I.param) {
                           case PREStrategy::LazyCodeMotion:
                             return "LCM";
                           case PREStrategy::MorelRenvoise:
                             return "MorelRenvoise";
                           case PREStrategy::GlobalCSE:
                             return "GlobalCSE";
                           case PREStrategy::Speculative:
                             // No profile attached: must fall back to LCM.
                             return "SpeculativeNoProfile";
                           }
                           return "?";
                         });

TEST(PRE, GlobalCSENeverInserts) {
  auto M = parse(R"(
func @f(%x:i64, %y:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  %t:i64 = add %x, %y
  %s:i64 = add %s, %t
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^ex
^ex:
  ret %s
}
)");
  Function &F = *M->Functions[0];
  PREStats S = runPass(F, PREPass(PREStrategy::GlobalCSE)).lastStats();
  EXPECT_EQ(S.Inserted, 0u);
}

// --- Speculative (profile-guided) placement --------------------------------

/// x+y computed only on the hot arm of a branch inside the loop. LCM cannot
/// move it (not anticipated at the loop header: the cold arm never computes
/// it), so the hot path pays one add per iteration. The shared source for
/// both speculative tests; OpName selects the hot arm's expression.
std::string branchyLoop(const char *HotExpr) {
  std::string S = R"(
func @f(%p:i64, %x:i64, %y:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  cbr %p, ^hot, ^cold
^hot:
)";
  S += "  ";
  S += HotExpr;
  S += R"(
  %s:i64 = add %s, %t
  br ^lt
^cold:
  %s:i64 = add %s, %i
  br ^lt
^lt:
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^ex
^ex:
  ret %s
}
)";
  return S;
}

/// A profile of branchyLoop in which the hot arm is taken every iteration
/// and the cold arm never runs.
FunctionProfile hotArmProfile() {
  FunctionProfile FP;
  FP.Function = "f";
  auto Add = [&](const char *L, uint64_t C,
                 std::vector<BlockProfile::Edge> Edges = {}) {
    BlockProfile B;
    B.Label = L;
    B.Count = C;
    B.Edges = std::move(Edges);
    FP.Blocks.push_back(std::move(B));
  };
  Add("e", 1, {{"l", 1}});
  Add("l", 100, {{"hot", 100}, {"cold", 0}});
  Add("hot", 100, {{"lt", 100}});
  Add("cold", 0, {{"lt", 0}});
  Add("lt", 100, {{"l", 99}, {"ex", 1}});
  Add("ex", 1);
  return FP;
}

PREStats runWithProfile(Function &F, PREStrategy Strategy,
                        const FunctionProfile &FP) {
  StatsRegistry SR;
  PassContext Ctx(&SR);
  PREPass P(Strategy, &FP);
  P.run(F, Ctx);
  return P.lastStats();
}

TEST(PRE, SpeculativeHoistsHotPartialRedundancy) {
  std::string Src = branchyLoop("%t:i64 = add %x, %y");
  std::vector<RtValue> Hot = {RtValue::ofI(1), RtValue::ofI(3),
                              RtValue::ofI(4), RtValue::ofI(50)};
  std::vector<RtValue> Cold = {RtValue::ofI(0), RtValue::ofI(3),
                               RtValue::ofI(4), RtValue::ofI(50)};

  // A block still computing x + y locally (params()[1] is %x).
  auto computesXPlusY = [](const Function &Fn, std::string_view Label) {
    bool Found = false;
    Fn.forEachBlock([&](const BasicBlock &B) {
      if (B.label() != Label)
        return;
      for (const Instruction &I : B.Insts)
        Found |= I.Op == Opcode::Add && I.Operands[0] == Fn.params()[1];
    });
    return Found;
  };

  // LCM refuses to move x + y (inserting would lengthen the cold path); it
  // may still hoist the loadi 1, which is anticipated on every path.
  {
    auto M = parse(Src.c_str());
    Function &L = *M->Functions[0];
    runPass(L, PREPass());
    EXPECT_TRUE(computesXPlusY(L, "hot")) << printFunction(L);
  }

  auto M = parse(Src.c_str());
  Function &F = *M->Functions[0];
  MemoryImage Mem(0);
  ExecResult HotBefore = interpret(F, Hot, Mem);
  ExecResult ColdBefore = interpret(F, Cold, Mem);

  FunctionProfile FP = hotArmProfile();
  PREStats S = runWithProfile(F, PREStrategy::Speculative, FP);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty()) << printFunction(F);
  EXPECT_EQ(S.Speculated, 1u);
  EXPECT_GE(S.Inserted, 1u);
  EXPECT_GE(S.Deleted, 1u);
  EXPECT_FALSE(computesXPlusY(F, "hot")) << printFunction(F);

  // Same results on both arms; the hot run is strictly cheaper because the
  // add left the loop.
  ExecResult HotAfter = interpret(F, Hot, Mem);
  ExecResult ColdAfter = interpret(F, Cold, Mem);
  ASSERT_TRUE(HotAfter.ok());
  ASSERT_TRUE(ColdAfter.ok());
  EXPECT_EQ(HotAfter.ReturnValue.I, HotBefore.ReturnValue.I);
  EXPECT_EQ(ColdAfter.ReturnValue.I, ColdBefore.ReturnValue.I);
  EXPECT_LT(HotAfter.DynOps, HotBefore.DynOps);
}

TEST(PRE, SpeculativeNeverMovesTrappingOps) {
  // Same shape, but the hot arm computes an i64 division by %y. Hoisting it
  // above the branch would introduce a ÷0 trap on runs that stay on the
  // cold arm — speculationSafe must keep it in place no matter what the
  // profile promises.
  std::string Src = branchyLoop("%t:i64 = div %x, %y");
  auto M = parse(Src.c_str());
  Function &F = *M->Functions[0];

  FunctionProfile FP = hotArmProfile();
  PREStats S = runWithProfile(F, PREStrategy::Speculative, FP);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty()) << printFunction(F);
  EXPECT_EQ(S.Speculated, 0u);
  // The division stays exactly where it was: in ^hot, nowhere else.
  EXPECT_EQ(countOp(F, Opcode::Div), 1u);
  bool DivInHot = false;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::Div)
        DivInHot = B.label() == "hot";
  });
  EXPECT_TRUE(DivInHot) << printFunction(F);

  // Cold-arm run with a zero divisor: still trap-free after the pass.
  MemoryImage Mem(0);
  ExecResult R = interpret(F, {RtValue::ofI(0), RtValue::ofI(3),
                               RtValue::ofI(0), RtValue::ofI(20)},
                           Mem);
  ASSERT_TRUE(R.ok()) << R.TrapReason << "\n" << printFunction(F);
}

/// The guarded-arm diamond: ^g has ^e as its single predecessor, and the
/// join edge ^e -> ^j is critical. ^e kills x + y, ^g and ^j recompute it,
/// and the guarded arm is the colder one. LCM would insert on the critical
/// edge, which costs more than the code as it stands; the min cut only ties
/// it, by inserting on ^e -> ^g and deleting ^g's occurrence. Adopting that
/// tie rewrites identical code, so every rerun would find it again and the
/// PRE fixpoint would never converge.
TEST(PRE, SpeculativeRerunOnItsOwnOutputIsIdempotent) {
  auto M = parse(R"(
func @f(%p:i64, %x:i64, %y:i64) -> i64 {
^e:
  %one:i64 = loadi 1
  %x:i64 = add %x, %one
  cbr %p, ^g, ^j
^g:
  %t:i64 = add %x, %y
  br ^j
^j:
  %t:i64 = add %x, %y
  ret %t
}
)");
  Function &F = *M->Functions[0];
  FunctionProfile FP;
  FP.Function = "f";
  auto Add = [&](const char *L, uint64_t C,
                 std::vector<BlockProfile::Edge> Edges = {}) {
    BlockProfile B;
    B.Label = L;
    B.Count = C;
    B.Edges = std::move(Edges);
    FP.Blocks.push_back(std::move(B));
  };
  Add("e", 100, {{"g", 10}, {"j", 90}});
  Add("g", 10, {{"j", 10}});
  Add("j", 100);

  runWithProfile(F, PREStrategy::Speculative, FP);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty()) << printFunction(F);
  PREStats S = runWithProfile(F, PREStrategy::Speculative, FP);
  EXPECT_EQ(S.Inserted, 0u) << printFunction(F);
  EXPECT_EQ(S.Deleted, 0u) << printFunction(F);
  EXPECT_EQ(S.Speculated, 0u) << printFunction(F);
  EXPECT_EQ(countOp(F, Opcode::Add), 3u) << printFunction(F);
}

// --- Fixpoint evaluation counts ---------------------------------------------

/// AVAIL and ANT evaluate blocks in FIFO order from a reverse-postorder
/// (AVAIL) or postorder (ANT) seed, re-queueing only the neighbours of a
/// block whose set changed. pre.avail_iterations and pre.ant_iterations
/// publish those counts, so the discipline is pinned: these are the counts
/// the generic bit-vector solver that PRE used before took on the same
/// inputs (the paper's running example and a 16-loop nest).
TEST(PRE, FixpointEvaluationCountsArePinned) {
  const char *FooSource = R"(
function foo(y, z)
  s = 0
  x = y + z
  do i = x, 100
    s = i + s + x
  end do
  return s
end
)";
  struct Case {
    std::string Source;
    const char *Fn;
    unsigned Avail, Ant;
  } Cases[] = {{FooSource, "foo", 4, 4},
               {epre::test::loopNestSource(16), "gen", 49, 49}};
  for (const Case &C : Cases) {
    LowerResult LR = compileMiniFortran(C.Source, NamingMode::Hashed);
    ASSERT_TRUE(LR.ok()) << LR.Error;
    PREDataflow D = analyzePartialRedundancies(*LR.M->find(C.Fn));
    EXPECT_EQ(D.Stats.AvailIterations, C.Avail) << C.Fn;
    EXPECT_EQ(D.Stats.AntIterations, C.Ant) << C.Fn;
  }
}

//===----------------------------------------------------------------------===//
// Session rounds against fresh runs
//===----------------------------------------------------------------------===//

using ModuleMaker = std::function<std::unique_ptr<Module>()>;

/// The PREStats fields a session round must share with a fresh PREPass run
/// on the same input, as counter names; the solve counts (work, AVAIL/ANT
/// evaluations, network arcs) measure the round's own work and may differ.
constexpr std::array<const char *, 6> SharedStats = {
    "universe", "deleted",   "dropped_unsafe",
    "inserted", "edges_split", "speculated"};

std::array<uint64_t, 6> sharedStats(const PREStats &S) {
  return {S.UniverseSize, S.Deleted,    S.DroppedUnsafe,
          S.Inserted,     S.EdgesSplit, S.Speculated};
}

std::vector<std::string> remarkTexts(const PassInstrumentation &PI) {
  std::vector<std::string> Texts;
  for (const Remark &R : PI.remarks().remarks())
    Texts.push_back(R.toText());
  return Texts;
}

/// For every k up to convergence, the pipeline prefix ending k rounds into
/// its first PRE fixpoint (one PRESession) must print the same IR, emit
/// the same remarks and count the same shared PREStats as the prefix up to
/// that fixpoint followed by k fresh PREPass runs. Returns the rounds
/// compared.
unsigned expectSessionMatchesFreshRounds(const ModuleMaker &Make,
                                         unsigned Index, PipelineOptions PO,
                                         const std::string &What) {
  PassPrefixResult Full =
      optimizeFunctionPrefix(*Make()->Functions[Index], PO, ~0u);
  auto First = std::find(Full.Trace.begin(), Full.Trace.end(), "pre");
  if (First == Full.Trace.end())
    return 0;
  const unsigned FirstPre = unsigned(First - Full.Trace.begin());
  unsigned Rounds = 0;
  while (First + Rounds != Full.Trace.end() && First[Rounds] == "pre")
    ++Rounds;

  InstrumentationOptions IO;
  IO.CollectRemarks = true;
  // The fresh side: the prefix, then one PREPass per round.
  auto Fresh = Make();
  Function &FF = *Fresh->Functions[Index];
  PassInstrumentation FreshPI(IO);
  PO.Instr = &FreshPI;
  optimizeFunctionPrefix(FF, PO, FirstPre);
  const FunctionProfile *Profile =
      PO.ProfileIn ? PO.ProfileIn->find(FF.name()) : nullptr;
  StatsRegistry FreshStats;
  PassContext Ctx(&FreshStats, &FreshPI);
  std::array<uint64_t, 6> Sums = {};
  for (unsigned K = 1; K <= Rounds; ++K) {
    PREPass P(PO.Strategy, Profile);
    P.run(FF, Ctx);
    std::array<uint64_t, 6> S = sharedStats(P.lastStats());
    for (unsigned I = 0; I < S.size(); ++I)
      Sums[I] += S[I];

    auto Session = Make();
    Function &SF = *Session->Functions[Index];
    PassInstrumentation SessionPI(IO);
    PO.Instr = &SessionPI;
    optimizeFunctionPrefix(SF, PO, FirstPre + K);
    const std::string At = What + " round " + std::to_string(K);
    EXPECT_EQ(printFunction(SF), printFunction(FF)) << At;
    EXPECT_EQ(remarkTexts(SessionPI), remarkTexts(FreshPI)) << At;
    for (unsigned I = 0; I < SharedStats.size(); ++I)
      EXPECT_EQ(SessionPI.stats().get("pre", SharedStats[I]), Sums[I])
          << At << ": pre." << SharedStats[I];
    if (::testing::Test::HasFailure())
      break;
  }
  return Rounds;
}

std::unique_ptr<Module> lowerOrFail(const std::string &Src, NamingMode N) {
  LowerResult LR = compileMiniFortran(Src, N);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return std::move(LR.M);
}

PipelineOptions optionsAt(OptLevel L, PREStrategy S = PREStrategy::LazyCodeMotion) {
  PipelineOptions PO;
  PO.Level = L;
  PO.Naming =
      L == OptLevel::Partial ? InputNaming::Hashed : InputNaming::Naive;
  PO.Strategy = S;
  return PO;
}

constexpr OptLevel PRELevels[] = {OptLevel::Partial, OptLevel::Reassociation,
                                  OptLevel::Distribution};

TEST(PRESession, SuiteRoundsMatchFreshRuns) {
  unsigned Rounds = 0;
  for (const Routine &R : benchmarkSuite())
    for (OptLevel L : PRELevels)
      Rounds += expectSessionMatchesFreshRounds(
          [&] { return lowerOrFail(R.Source, test::namingFor(L)); }, 0,
          optionsAt(L), R.Name + "@" + optLevelName(L));
  EXPECT_GT(Rounds, 300u);
}

TEST(PRESession, CorpusRoundsMatchFreshRuns) {
  unsigned Rounds = 0;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR)) {
    if (E.path().extension() != ".iloc")
      continue;
    std::ifstream In(E.path());
    std::stringstream SS;
    SS << In.rdbuf();
    const std::string Text = SS.str();
    const size_t Functions = parse(Text.c_str())->Functions.size();
    for (OptLevel L : PRELevels)
      for (unsigned I = 0; I < Functions; ++I)
        Rounds += expectSessionMatchesFreshRounds(
            [&] { return parse(Text.c_str()); }, I, optionsAt(L),
            E.path().filename().string() + "@" + optLevelName(L));
  }
  EXPECT_GT(Rounds, 0u);
}

/// The loop chain under each non-speculative strategy, and one speculative
/// compile trained on the chain's own unoptimized run.
TEST(PRESession, LoopChainRoundsMatchFreshRuns) {
  for (unsigned Loops : {8u, 16u, 32u, 64u}) {
    auto Make = [&] { return lowerOrFail(test::loopChain(Loops), NamingMode::Naive); };
    for (PREStrategy S : {PREStrategy::LazyCodeMotion,
                          PREStrategy::MorelRenvoise, PREStrategy::GlobalCSE})
      EXPECT_GT(expectSessionMatchesFreshRounds(
                    Make, 0, optionsAt(OptLevel::Distribution, S),
                    std::to_string(Loops) + " loops, " + preStrategyName(S)),
                1u);

    LowerResult LR = compileMiniFortran(test::loopChain(Loops), NamingMode::Naive);
    ASSERT_TRUE(LR.ok()) << LR.Error;
    Function &F = *LR.M->find("chain");
    MemoryImage Mem(LR.Routines[0].LocalMemBytes);
    ProfileCollector PC;
    interpret(F,
              {RtValue::ofF(1.5), RtValue::ofF(2.25), RtValue::ofI(24),
               RtValue::ofI(16)},
              Mem, ExecLimits(), &PC);
    ProfileDoc Doc;
    Doc.Profiles.push_back(PC.finalize(F));
    PipelineOptions PO =
        optionsAt(OptLevel::Distribution, PREStrategy::Speculative);
    PO.ProfileIn = &Doc;
    EXPECT_GT(expectSessionMatchesFreshRounds(
                  Make, 0, PO, std::to_string(Loops) + " loops, speculative"),
              1u);
  }
}

TEST(PRESession, GeneratedProgramRoundsMatchFreshRuns) {
  unsigned Programs = 0, Rounds = 0;
  for (const std::string &Shape : fuzz::generatorShapeNames()) {
    fuzz::GeneratorOptions GO;
    ASSERT_TRUE(fuzz::shapeOptions(Shape, GO));
    for (uint64_t Seed = 1; Seed <= 12; ++Seed, ++Programs) {
      const std::string Text = fuzz::generateProgram(Seed, GO, Shape).Text;
      const size_t Functions = parse(Text.c_str())->Functions.size();
      for (OptLevel L : {OptLevel::Partial, OptLevel::Distribution})
        for (unsigned I = 0; I < Functions; ++I)
          Rounds += expectSessionMatchesFreshRounds(
              [&] { return parse(Text.c_str()); }, I, optionsAt(L),
              Shape + "/" + std::to_string(Seed) + "@" + optLevelName(L));
    }
  }
  EXPECT_GE(Programs, 60u);
  EXPECT_GT(Rounds, Programs);
}

/// Session rounds against fresh PREPass runs on random functions (the
/// fuzz shape "cfg") under every strategy, speculative with random block
/// and edge counts as its profile. These functions split edges into
/// irreducible loops and onto the LCM edges of expressions left alone for
/// a tie, which the structured programs above rarely do.
TEST(PRESession, RandomCFGRoundsMatchFreshRuns) {
  fuzz::GeneratorOptions GO;
  ASSERT_TRUE(fuzz::shapeOptions("cfg", GO));
  std::mt19937_64 Rng(2024);
  unsigned Functions = 0, Split = 0;
  for (unsigned Case = 0; Case < 4000; ++Case) {
    const std::string Text = fuzz::generateProgram(Case + 1, GO, "cfg").Text;
    auto Probe = parse(Text.c_str());
    ASSERT_TRUE(Probe) << Text;
    const Function &F0 = *Probe->Functions[0];
    if (!verifyFunction(F0, SSAMode::NoSSA).empty())
      continue;
    ++Functions;
    FunctionProfile Prof;
    F0.forEachBlock([&](const BasicBlock &B) {
      BlockProfile BP;
      BP.Label = B.label();
      BP.Count = Rng() % 4 == 0 ? 0 : Rng() % 100;
      for (BlockId S : B.successors())
        BP.Edges.push_back({F0.block(S)->label(), Rng() % 60});
      Prof.Blocks.push_back(std::move(BP));
    });
    for (PREStrategy S :
         {PREStrategy::LazyCodeMotion, PREStrategy::MorelRenvoise,
          PREStrategy::GlobalCSE, PREStrategy::Speculative}) {
      const FunctionProfile *Profile =
          S == PREStrategy::Speculative ? &Prof : nullptr;
      auto Fresh = parse(Text.c_str()), InSession = parse(Text.c_str());
      Function &FF = *Fresh->Functions[0], &SF = *InSession->Functions[0];
      StatsRegistry SR;
      PassContext Ctx(&SR);
      PRESession Session(SF, S, Profile);
      for (unsigned Round = 1; Round <= 16; ++Round) {
        PREPass P(S, Profile);
        P.run(FF, Ctx);
        PREStats Stats = Session.run(Ctx);
        ASSERT_EQ(printFunction(SF), printFunction(FF))
            << preStrategyName(S) << " round " << Round << "\n" << Text;
        ASSERT_EQ(sharedStats(Stats), sharedStats(P.lastStats()))
            << preStrategyName(S) << " round " << Round << "\n" << Text;
        Split += Stats.EdgesSplit;
        if (Stats.Inserted == 0 && Stats.Deleted == 0)
          break;
      }
    }
  }
  EXPECT_GT(Functions, 2000u);
  EXPECT_GT(Split, 1000u);
}

/// Appends one block's counts to \p Prof.
void addBlockProfile(FunctionProfile &Prof, const char *Label, uint64_t Count,
                     std::vector<BlockProfile::Edge> Edges) {
  BlockProfile B;
  B.Label = Label;
  B.Count = Count;
  B.Edges = std::move(Edges);
  Prof.Blocks.push_back(std::move(B));
}

/// Runs Speculative PRE on \p Src to its fixpoint twice, as one session and
/// as fresh passes, requiring the same IR and counters after every round;
/// \p Rounds receives the session's stats.
void speculativeSessionRounds(const char *Src, const FunctionProfile &Prof,
                              std::vector<PREStats> &Rounds) {
  auto Fresh = parse(Src), InSession = parse(Src);
  Function &FF = *Fresh->Functions[0], &SF = *InSession->Functions[0];
  StatsRegistry SR;
  PassContext Ctx(&SR);
  PRESession Session(SF, PREStrategy::Speculative, &Prof);
  for (unsigned Round = 1; Round <= 16; ++Round) {
    PREPass P(PREStrategy::Speculative, &Prof);
    P.run(FF, Ctx);
    PREStats S = Session.run(Ctx);
    ASSERT_EQ(printFunction(SF), printFunction(FF)) << "round " << Round;
    EXPECT_EQ(sharedStats(S), sharedStats(P.lastStats())) << "round " << Round;
    Rounds.push_back(S);
    if (S.Inserted == 0 && S.Deleted == 0)
      break;
  }
}

/// Speculative PRE sets an expression's LCM placement aside when the min
/// cut only ties the code as it stands. Round 1 here splits the critical
/// edge ^b2 -> ^b1, on which LCM would have inserted such an expression;
/// the new block is unknown to the profile, so round 2 prices that
/// expression differently and the session must solve it again. The
/// function and its profile came out of a random search that compared
/// session and fresh rounds.
TEST(PRESession, SpeculativeTieOnASplitEdgeIsSolvedAgain) {
  const char *Src = R"(
func @f(%p:i64, %v1:i64, %v2:i64, %v3:i64) -> i64 {
^b0:
  %t_mul_2_3:i64 = mul %v2, %v3
  %v1:i64 = copy %t_mul_2_3
  cbr %p, ^b3, ^b1
^b1:
  %t_sub_2_2:i64 = sub %v2, %v2
  br ^b2
^b2:
  %t_mul_1_2:i64 = mul %v1, %v2
  cbr %p, ^b3, ^b1
^b3:
  %t_add_2_2:i64 = add %v2, %v2
  ret %v2
}
)";
  FunctionProfile Prof;
  addBlockProfile(Prof, "b0", 74, {{"b3", 55}, {"b1", 53}});
  addBlockProfile(Prof, "b1", 26, {{"b2", 49}});
  addBlockProfile(Prof, "b2", 0, {{"b3", 20}, {"b1", 22}});
  addBlockProfile(Prof, "b3", 33, {});

  std::vector<PREStats> Rounds;
  speculativeSessionRounds(Src, Prof, Rounds);
  unsigned Split = 0;
  for (const PREStats &S : Rounds)
    Split += S.EdgesSplit;
  EXPECT_GT(Split, 0u);
}

/// Splitting an edge into a block that cannot reach an exit shrinks
/// anticipability above it, and can change the LCM placement of an
/// expression the round did not touch: here %t, whose LCM placement
/// (insert on ^p1 -> ^from, delete in ^to and ^s) round 1 sets aside for a
/// tie with the code as it stands. Round 1 splits ^from -> ^to for the
/// division. In round 2 the new block's empty ANTOUT moves %t's LCM
/// insertion onto the new edge into ^to, which the profile cannot price,
/// so that placement costs nothing and is applied. The session must solve
/// %t again although no Ties edge was split; the rule that dirties the
/// upward-exposed expressions of a split edge's target that cannot reach
/// an exit is what catches it.
TEST(PRESession, SplitIntoAnInfiniteLoopIsSolvedAgain) {
  const char *Src = R"(
func @f(%p:i64, %q:i64, %a:i64, %b:i64, %c:i64, %d:i64) -> i64 {
^b0:
  cbr %p, ^p1, ^p2
^p1:
  br ^from
^p2:
  %t:i64 = add %a, %b
  br ^from
^from:
  cbr %q, ^to, ^s
^to:
  %t:i64 = add %a, %b
  %u:i64 = div %c, %d
  br ^to
^s:
  %t:i64 = add %a, %b
  ret %t
}
)";
  FunctionProfile Prof;
  addBlockProfile(Prof, "b0", 10, {{"p1", 10}, {"p2", 0}});
  addBlockProfile(Prof, "p1", 10, {{"from", 10}});
  addBlockProfile(Prof, "p2", 0, {{"from", 0}});
  addBlockProfile(Prof, "from", 10, {{"to", 10}, {"s", 0}});
  addBlockProfile(Prof, "to", 1, {{"to", 0}});
  addBlockProfile(Prof, "s", 0, {});

  std::vector<PREStats> Rounds;
  speculativeSessionRounds(Src, Prof, Rounds);
  ASSERT_GE(Rounds.size(), 2u);
  EXPECT_EQ(Rounds[0].EdgesSplit, 1u);
  EXPECT_GT(Rounds[1].Deleted, 0u) << "round 2 re-places %t";
}

//===----------------------------------------------------------------------===//
// MaxFlow: the speculative strategy's min-cut solver
//===----------------------------------------------------------------------===//

struct Arc {
  unsigned From, To;
  uint64_t Cap;
};

/// Solves the network \p Arcs over \p Nodes nodes from 0 to 1 and returns
/// the flow; \p Reach receives the source side of the minimum cut.
uint64_t solveNetwork(unsigned Nodes, const std::vector<Arc> &Arcs,
                      std::vector<char> &Reach) {
  MaxFlow Net;
  Net.reset(Nodes);
  for (const Arc &A : Arcs)
    Net.addArc(A.From, A.To, A.Cap);
  EXPECT_EQ(Net.numArcs(), Arcs.size());
  uint64_t Flow = Net.solve(0, 1);
  Net.sourceSide(0, Reach);
  return Flow;
}

/// The arcs leaving the source side: a cut whose capacity must equal the
/// maximum flow.
std::vector<Arc> cutArcs(const std::vector<Arc> &Arcs,
                         const std::vector<char> &Reach) {
  std::vector<Arc> Cut;
  for (const Arc &A : Arcs)
    if (Reach[A.From] && !Reach[A.To])
      Cut.push_back(A);
  return Cut;
}

uint64_t capacity(const std::vector<Arc> &Cut) {
  uint64_t C = 0;
  for (const Arc &A : Cut)
    C += A.Cap;
  return C;
}

TEST(MaxFlow, SinglePathIsCutAtItsNarrowestArc) {
  // 0 -> 2 -> 3 -> 1 with capacities 5, 3, 4.
  std::vector<Arc> Arcs = {{0, 2, 5}, {2, 3, 3}, {3, 1, 4}};
  std::vector<char> Reach;
  EXPECT_EQ(solveNetwork(4, Arcs, Reach), 3u);
  EXPECT_EQ(Reach, (std::vector<char>{1, 0, 1, 0}));
  std::vector<Arc> Cut = cutArcs(Arcs, Reach);
  ASSERT_EQ(Cut.size(), 1u);
  EXPECT_EQ(Cut[0].From, 2u);
  EXPECT_EQ(Cut[0].To, 3u);
}

TEST(MaxFlow, TwoPathsShareOneBottleneck) {
  // Two paths 0 -> 2 -> 4 and 0 -> 3 -> 4 meet before the shared arc
  // 4 -> 1 of capacity 5: the flow is 5, not the 8 the paths carry apart.
  std::vector<Arc> Arcs = {
      {0, 2, 4}, {0, 3, 4}, {2, 4, 10}, {3, 4, 10}, {4, 1, 5}};
  std::vector<char> Reach;
  EXPECT_EQ(solveNetwork(5, Arcs, Reach), 5u);
  std::vector<Arc> Cut = cutArcs(Arcs, Reach);
  ASSERT_EQ(Cut.size(), 1u);
  EXPECT_EQ(Cut[0].From, 4u);
  EXPECT_EQ(Cut[0].To, 1u);
}

TEST(MaxFlow, CutAvoidsUnboundedArcs) {
  // Every path starts with an Unbounded arc and the cheapest arc overall
  // (2 -> 3, capacity 1) sits behind another Unbounded one, so the only
  // finite cut is the two arcs into the sink.
  const uint64_t U = MaxFlow::Unbounded;
  std::vector<Arc> Arcs = {
      {0, 2, U}, {2, 1, 6}, {2, 3, 1}, {0, 4, U}, {4, 3, U}, {3, 1, 4}};
  std::vector<char> Reach;
  uint64_t Flow = solveNetwork(5, Arcs, Reach);
  EXPECT_EQ(Flow, 10u);
  std::vector<Arc> Cut = cutArcs(Arcs, Reach);
  for (const Arc &A : Cut)
    EXPECT_NE(A.Cap, U) << A.From << " -> " << A.To;
  EXPECT_EQ(capacity(Cut), Flow);
  EXPECT_EQ(Reach, (std::vector<char>{1, 0, 1, 1, 1}));
}

TEST(MaxFlow, SourceSideDoesNotDependOnArcOrder) {
  // Two minimum cuts of capacity 4 ({0->2, 0->3} and {2->1, 3->1}) and a
  // third path that saturates in the middle: every order of adding the
  // arcs must report the same source side, the one nearest the source.
  std::vector<Arc> Arcs = {{0, 2, 2}, {0, 3, 2}, {2, 1, 2},
                           {3, 1, 2}, {0, 4, 3}, {4, 5, 1}, {5, 1, 3}};
  std::vector<char> First;
  uint64_t Flow = solveNetwork(6, Arcs, First);
  EXPECT_EQ(Flow, 5u);
  EXPECT_EQ(First, (std::vector<char>{1, 0, 0, 0, 1, 0}));
  EXPECT_EQ(capacity(cutArcs(Arcs, First)), Flow);

  std::vector<unsigned> Order(Arcs.size());
  for (unsigned I = 0; I < Order.size(); ++I)
    Order[I] = I;
  unsigned Orders = 0;
  do {
    std::vector<Arc> Permuted;
    for (unsigned I : Order)
      Permuted.push_back(Arcs[I]);
    std::vector<char> Reach;
    ASSERT_EQ(solveNetwork(6, Permuted, Reach), Flow);
    ASSERT_EQ(Reach, First) << "order #" << Orders;
    ++Orders;
  } while (std::next_permutation(Order.begin(), Order.end()));
  EXPECT_EQ(Orders, 5040u);
}

} // namespace
