//===- tests/ssa_test.cpp - SSA construction/destruction, parallel copies -===//

#include "gvn/DVNT.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "ssa/ParallelCopy.h"
#include "ssa/SSA.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace epre;
using epre::test::runOnStack;
using epre::test::runPass;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

unsigned countPhis(const Function &F) {
  unsigned N = 0;
  F.forEachBlock([&](const BasicBlock &B) { N += B.firstNonPhi(); });
  return N;
}

unsigned countCopies(const Function &F) {
  unsigned N = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      N += I.isCopy();
  });
  return N;
}

// A loop accumulating into two variables.
const char *LoopSrc = R"(
func @f(%n:i64) -> i64 {
^e:
  %s:i64 = loadi 0
  %i:i64 = loadi 0
  br ^l
^l:
  %s:i64 = add %s, %i
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  ret %s
}
)";

ExecResult run(const Function &F, int64_t N) {
  MemoryImage Mem(0);
  return interpret(F, {RtValue::ofI(N)}, Mem);
}

TEST(SSA, BuildsValidSSA) {
  auto M = parse(LoopSrc);
  Function &F = *M->Functions[0];
  SSAInfo Info = runPass(F, SSABuildPass()).lastInfo();
  EXPECT_TRUE(verifyFunction(F, SSAMode::SSA).empty())
      << printFunction(F);
  // s and i each need a phi at the loop header.
  EXPECT_EQ(Info.NumPhis, 2u);
  EXPECT_EQ(countPhis(F), 2u);
}

TEST(SSA, CopyFoldingRemovesCopies) {
  const char *Src = R"(
func @f(%x:i64) -> i64 {
^e:
  %a:i64 = copy %x
  %b:i64 = copy %a
  %c:i64 = add %b, %b
  ret %c
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  SSAInfo Info = runPass(F, SSABuildPass()).lastInfo();
  EXPECT_EQ(Info.NumCopiesFolded, 2u);
  EXPECT_EQ(countCopies(F), 0u);
  // The add must now reference the parameter directly.
  bool Found = false;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::Add) {
        EXPECT_EQ(I.Operands[0], F.params()[0]);
        Found = true;
      }
  });
  EXPECT_TRUE(Found);
}

TEST(SSA, PruningSuppressesDeadPhis) {
  // v is assigned on both arms but never used after the join: a pruned
  // build places no phi for it.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^e:
  cbr %p, ^a, ^b
^a:
  %v:i64 = loadi 1
  br ^j
^b:
  %v:i64 = loadi 2
  br ^j
^j:
  %r:i64 = loadi 9
  ret %r
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  runPass(F, SSABuildPass());
  EXPECT_EQ(countPhis(F), 0u);
}

TEST(SSA, RoundTripPreservesBehaviour) {
  for (int64_t N : {0, 1, 2, 17, 100}) {
    auto M = parse(LoopSrc);
    Function &F = *M->Functions[0];
    ExecResult Before = run(F, N);
    runPass(F, SSABuildPass());
    ExecResult Mid = run(F, N);
    runPass(F, SSADestroyPass());
    EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
        << printFunction(F);
    ExecResult After = run(F, N);
    ASSERT_FALSE(Before.Trapped || Mid.Trapped || After.Trapped);
    EXPECT_EQ(Before.ReturnValue.I, Mid.ReturnValue.I) << "N=" << N;
    EXPECT_EQ(Before.ReturnValue.I, After.ReturnValue.I) << "N=" << N;
  }
}

TEST(SSA, UndefinedUseGetsZeroInit) {
  // %v is used before any definition on the p=0 path; SSA construction
  // must zero-initialize rather than crash, and the interpreter semantics
  // (registers start at 0) must be preserved.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^e:
  cbr %p, ^a, ^j
^a:
  %v:i64 = loadi 7
  br ^j
^j:
  ret %v
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  ExecResult R0 = run(F, 0), R1 = run(F, 1);
  runPass(F, SSABuildPass());
  EXPECT_TRUE(verifyFunction(F, SSAMode::SSA).empty())
      << printFunction(F);
  ExecResult S0 = run(F, 0), S1 = run(F, 1);
  EXPECT_EQ(R0.ReturnValue.I, S0.ReturnValue.I);
  EXPECT_EQ(R1.ReturnValue.I, S1.ReturnValue.I);
}

TEST(SSA, EntryInitEndsLiveRangeAroundLoopThroughEntry) {
  // The back edge ^j -> ^e makes the entry a loop header. Before the
  // zero-init, %v is live around the loop (read at ^e before any
  // definition); the init at the top of ^e kills it there, so %v is dead
  // at the join ^j and pruned SSA must place no phi for it.
  const char *Src = R"(
func @f(%n:i64, %c:i64) -> i64 {
^e:
  %one:i64 = loadi 1
  %t:i64 = add %v, %one
  %k:i64 = add %k, %one
  cbr %c, ^a, ^b
^a:
  %v:i64 = loadi 5
  br ^j
^b:
  br ^j
^j:
  %d:i64 = cmplt %k, %n
  cbr %d, ^e, ^x
^x:
  ret %t
}
)";
  auto M = parse(Src);
  Function &F = *M->Functions[0];
  runPass(F, SSABuildPass());
  EXPECT_TRUE(verifyFunction(F, SSAMode::SSA).empty()) << printFunction(F);
  EXPECT_EQ(countPhis(F), 0u) << printFunction(F);
}

/// A straight line of \p N + 1 blocks, each after the first redefining one
/// variable: the dominator tree is a path N + 1 deep.
std::string straightChain(unsigned N) {
  std::string S = "func @chain(%r1:i64) -> i64 {\n^b0:\n  %r2:i64 = copy %r1\n"
                  "  br ^b1\n";
  for (unsigned B = 1; B < N; ++B)
    S += strprintf("^b%u:\n  %%r3:i64 = add %%r2, %%r1\n  %%r2:i64 = copy "
                   "%%r3\n  br ^b%u\n",
                   B, B + 1);
  return S + strprintf("^b%u:\n  ret %%r2\n}\n", N);
}

/// SSA renaming and dominator-tree value numbering walk the dominator tree,
/// which is as deep as the function's longest block chain. They keep their
/// own stacks, so a 50,000-block chain fits in 256 KiB of thread stack
/// (docs/PASSES.md, "Deep inputs").
TEST(SSA, DominatorTreeWalksFitASmallThreadStack) {
  const std::string Text = straightChain(50000);
  auto ForSSA = parse(Text.c_str());
  auto ForDVNT = parse(Text.c_str());
  std::string SSAErrors, DVNTErrors;
  runOnStack(256 * 1024, [&] {
    Function &F = *ForSSA->Functions[0];
    runPass(F, SSABuildPass());
    for (const std::string &E : verifyFunction(F, SSAMode::SSA))
      SSAErrors += E + "\n";
    Function &G = *ForDVNT->Functions[0];
    runPass(G, DVNTPass());
    for (const std::string &E : verifyFunction(G, SSAMode::NoSSA))
      DVNTErrors += E + "\n";
  });
  EXPECT_EQ(SSAErrors, "");
  EXPECT_EQ(DVNTErrors, "");
  EXPECT_EQ(ForSSA->Functions[0]->numBlocks(), 50001u);
}

TEST(ParallelCopy, IndependentCopies) {
  Function F("f");
  Reg A = F.makeReg(Type::I64), B = F.makeReg(Type::I64);
  Reg X = F.makeReg(Type::I64), Y = F.makeReg(Type::I64);
  std::vector<Instruction> Seq =
      sequenceParallelCopies(F, {{A, X}, {B, Y}});
  EXPECT_EQ(Seq.size(), 2u);
}

TEST(ParallelCopy, SelfCopyDropped) {
  Function F("f");
  Reg A = F.makeReg(Type::I64);
  std::vector<Instruction> Seq = sequenceParallelCopies(F, {{A, A}});
  EXPECT_TRUE(Seq.empty());
}

TEST(ParallelCopy, ChainOrdered) {
  // {a<-b, b<-c}: must emit a<-b before b<-c.
  Function F("f");
  Reg A = F.makeReg(Type::I64), B = F.makeReg(Type::I64),
      C = F.makeReg(Type::I64);
  std::vector<Instruction> Seq =
      sequenceParallelCopies(F, {{B, C}, {A, B}});
  ASSERT_EQ(Seq.size(), 2u);
  EXPECT_EQ(Seq[0].Dst, A);
  EXPECT_EQ(Seq[1].Dst, B);
}

TEST(ParallelCopy, SwapNeedsTemp) {
  // {a<-b, b<-a}: a cycle; a temporary must break it.
  Function F("f");
  Reg A = F.makeReg(Type::I64), B = F.makeReg(Type::I64);
  unsigned RegsBefore = F.numRegs();
  std::vector<Instruction> Seq =
      sequenceParallelCopies(F, {{A, B}, {B, A}});
  ASSERT_EQ(Seq.size(), 3u);
  EXPECT_GT(F.numRegs(), RegsBefore);
  // Simulate to confirm the swap.
  std::map<Reg, int> Val = {{A, 1}, {B, 2}};
  for (const Instruction &I : Seq)
    Val[I.Dst] = Val[I.Operands[0]];
  EXPECT_EQ(Val[A], 2);
  EXPECT_EQ(Val[B], 1);
}

TEST(ParallelCopy, ThreeCycle) {
  Function F("f");
  Reg A = F.makeReg(Type::I64), B = F.makeReg(Type::I64),
      C = F.makeReg(Type::I64);
  std::vector<Instruction> Seq =
      sequenceParallelCopies(F, {{A, B}, {B, C}, {C, A}});
  std::map<Reg, int> Val = {{A, 1}, {B, 2}, {C, 3}};
  for (const Instruction &I : Seq)
    Val[I.Dst] = Val[I.Operands[0]];
  EXPECT_EQ(Val[A], 2);
  EXPECT_EQ(Val[B], 3);
  EXPECT_EQ(Val[C], 1);
}

TEST(SSA, DestroySwapLoop) {
  // A loop swapping two variables each iteration: destruction must use a
  // temporary, and behaviour must be identical.
  const char *Src = R"(
func @f(%n:i64) -> i64 {
^e:
  %a:i64 = loadi 1
  %b:i64 = loadi 2
  %i:i64 = loadi 0
  br ^l
^l:
  %t:i64 = copy %a
  %a:i64 = copy %b
  %b:i64 = copy %t
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  %h:i64 = loadi 10
  %r:i64 = mul %a, %h
  %r2:i64 = add %r, %b
  ret %r2
}
)";
  for (int64_t N : {0, 1, 2, 3, 7}) {
    auto M = parse(Src);
    Function &F = *M->Functions[0];
    ExecResult Before = run(F, N);
    runPass(F, SSABuildPass());
    runPass(F, SSADestroyPass());
    ExecResult After = run(F, N);
    ASSERT_FALSE(Before.Trapped || After.Trapped);
    EXPECT_EQ(Before.ReturnValue.I, After.ReturnValue.I) << "N=" << N;
  }
}

} // namespace
