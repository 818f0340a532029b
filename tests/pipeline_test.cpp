//===- tests/pipeline_test.cpp - Pipeline configuration matrix ------------===//
///
/// Integration tests of pipeline options that the smoke/suite tests don't
/// cover: strategy and FP-reassociation knobs, verification toggles, level
/// monotonicity on a hoisting-friendly workload, module-level driving,
/// and stability (optimizing twice changes nothing the second time).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CFG.h"
#include "frontend/Lower.h"
#include "gvn/ValueNumbering.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "opt/ConstantPropagation.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/Peephole.h"
#include "pipeline/Pipeline.h"
#include "pre/PRE.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "ssa/SSA.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <unistd.h>

using namespace epre;
using epre::test::carriedRing;
using epre::test::DuplicateTargetLoop;
using epre::test::DuplicateTargetLoopTwoVars;
using epre::test::ForwardingChainIntoPhi;
using epre::test::loopChain;
using epre::test::runOn;
using epre::test::runPass;

namespace {

const char *Workload = R"(
function work(a, b, n)
  integer n
  real w(32)
  do i = 1, n
    w(i) = (a + b) * i + (a + b)
  end do
  s = 0.0
  do i = 1, n
    s = s + w(i) * (a - b)
  end do
  return s
end
)";

struct RunOut {
  double Value = 0;
  uint64_t Ops = 0;
  bool Ok = false;
};

RunOut runWith(const PipelineOptions &PO) {
  NamingMode NM = PO.Level == OptLevel::Partial ? NamingMode::Hashed
                                                : NamingMode::Naive;
  LowerResult LR = compileMiniFortran(Workload, NM);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  RunOut R;
  if (!LR.ok())
    return R;
  Function &F = *LR.M->find("work");
  PipelineOptions Opts = PO;
  optimizeFunction(F, Opts);
  MemoryImage Mem(LR.Routines[0].LocalMemBytes);
  ExecResult E = interpret(
      F, {RtValue::ofF(1.5), RtValue::ofF(0.25), RtValue::ofI(32)}, Mem);
  EXPECT_FALSE(E.Trapped) << E.TrapReason;
  R.Ok = !E.Trapped;
  R.Value = E.ReturnValue.F;
  R.Ops = E.DynOps;
  return R;
}

TEST(Pipeline, LevelsMonotoneOnHoistingWorkload) {
  PipelineOptions PO;
  PO.Level = OptLevel::None;
  RunOut None = runWith(PO);
  PO.Level = OptLevel::Baseline;
  RunOut Base = runWith(PO);
  PO.Level = OptLevel::Partial;
  RunOut Part = runWith(PO);
  PO.Level = OptLevel::Distribution;
  RunOut Dist = runWith(PO);
  ASSERT_TRUE(None.Ok && Base.Ok && Part.Ok && Dist.Ok);
  EXPECT_LE(Base.Ops, None.Ops);
  EXPECT_LT(Part.Ops, Base.Ops);
  EXPECT_LT(Dist.Ops, Part.Ops);
  EXPECT_NEAR(None.Value, Dist.Value, 1e-9 * (1 + std::abs(None.Value)));
}

TEST(Pipeline, StrategiesAllCorrect) {
  for (PREStrategy S : {PREStrategy::LazyCodeMotion,
                        PREStrategy::MorelRenvoise, PREStrategy::GlobalCSE}) {
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Strategy = S;
    RunOut R = runWith(PO);
    ASSERT_TRUE(R.Ok);
    PipelineOptions Ref;
    Ref.Level = OptLevel::None;
    EXPECT_NEAR(R.Value, runWith(Ref).Value, 1e-9);
  }
}

TEST(Pipeline, NoFPReassocStillSound) {
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.AllowFPReassoc = false;
  RunOut R = runWith(PO);
  ASSERT_TRUE(R.Ok);
  PipelineOptions Ref;
  Ref.Level = OptLevel::None;
  // Without FP reassociation the result must be BIT-exact.
  EXPECT_EQ(R.Value, runWith(Ref).Value);
}

TEST(Pipeline, VerifyOffStillWorks) {
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Verify = false;
  RunOut R = runWith(PO);
  EXPECT_TRUE(R.Ok);
}

TEST(Pipeline, OptimizeModuleCoversAllFunctions) {
  const char *Two = R"(
function f1(a)
  return a + a
end

function f2(a)
  return a * a
end
)";
  LowerResult LR = compileMiniFortran(Two, NamingMode::Naive);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  std::vector<PipelineStats> Stats = optimizeModule(*LR.M, PO);
  EXPECT_EQ(Stats.size(), 2u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(*LR.M->find("f1"), {RtValue::ofF(3.0)}, Mem)
                .ReturnValue.F,
            6.0);
  EXPECT_EQ(interpret(*LR.M->find("f2"), {RtValue::ofF(3.0)}, Mem)
                .ReturnValue.F,
            9.0);
}

TEST(Pipeline, Idempotent) {
  // Running the strongest level twice must not change behaviour, and the
  // second run must not blow the code back up.
  LowerResult LR = compileMiniFortran(Workload, NamingMode::Naive);
  ASSERT_TRUE(LR.ok());
  Function &F = *LR.M->find("work");
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  optimizeFunction(F, PO);
  unsigned OpsAfterFirst = F.staticOperationCount();
  optimizeFunction(F, PO);
  unsigned OpsAfterSecond = F.staticOperationCount();
  EXPECT_LE(OpsAfterSecond, OpsAfterFirst + OpsAfterFirst / 4);
  MemoryImage Mem(LR.Routines[0].LocalMemBytes);
  ExecResult E = interpret(
      F, {RtValue::ofF(1.5), RtValue::ofF(0.25), RtValue::ofI(32)}, Mem);
  EXPECT_FALSE(E.Trapped) << E.TrapReason;
}

TEST(Pipeline, PhiInputLeavesSSAFirstAtEveryLevel) {
  // Relaxed input may carry phis; SSA construction asserts phi-free input,
  // so every level above none destroys SSA before anything else runs.
  for (OptLevel L : {OptLevel::Baseline, OptLevel::Partial,
                     OptLevel::Reassociation, OptLevel::Distribution}) {
    ParseResult R = parseModule(ForwardingChainIntoPhi);
    ASSERT_TRUE(R.ok()) << R.Error;
    Function &F = *R.M->Functions[0];
    PipelineOptions PO;
    PO.Level = L;
    PassPrefixResult P = optimizeFunctionPrefix(F, PO, ~0u);
    ASSERT_FALSE(P.Trace.empty());
    EXPECT_EQ(P.Trace.front(), "ssa.destroy") << optLevelName(L);
    EXPECT_FALSE(F.hasPhi()) << optLevelName(L);
    EXPECT_EQ(runOn(F, 0), 2) << optLevelName(L) << "\n" << printFunction(F);
    EXPECT_EQ(runOn(F, 7), 1) << optLevelName(L) << "\n" << printFunction(F);
  }
}

TEST(Pipeline, DuplicateTargetLoopsKeepTheirValueAtEveryLevel) {
  // The parser folds each cbr naming the loop header twice, so SSA
  // construction sees one edge per phi entry, verified or not.
  for (const char *Src : {DuplicateTargetLoop, DuplicateTargetLoopTwoVars})
    for (OptLevel L : {OptLevel::Baseline, OptLevel::Partial,
                       OptLevel::Reassociation, OptLevel::Distribution})
      for (bool Verify : {true, false}) {
        ParseResult R = parseModule(Src);
        ASSERT_TRUE(R.ok()) << R.Error;
        Function &F = *R.M->Functions[0];
        const int64_t Want = runOn(F, 0);
        ASSERT_EQ(runOn(F, 1), Want);
        ASSERT_EQ(Want, F.name() == "dup" ? 7 : 10);
        PipelineOptions PO;
        PO.Level = L;
        PO.Verify = Verify;
        optimizeFunction(F, PO);
        EXPECT_EQ(runOn(F, 0), Want) << optLevelName(L) << "\n"
                                     << printFunction(F);
        EXPECT_EQ(runOn(F, 1), Want) << optLevelName(L) << "\n"
                                     << printFunction(F);
      }
}

/// Runs `epre-opt FILE ARGS` and returns what it prints on stdout, or ""
/// when it exits nonzero.
std::string runEpreOpt(const std::string &File, const std::string &Args) {
  std::string Cmd = std::string(EPRE_OPT_PATH) + " " + File + " " + Args;
  std::FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P)
    return "";
  std::string Out;
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
    Out.append(Buf, N);
  return ::pclose(P) == 0 ? Out : "";
}

TEST(EpreOpt, DuplicateTargetLoopsKeepTheirValueAtTheReassociationLevels) {
  const std::string Path = ::testing::TempDir() + "epre_opt_dup_" +
                           std::to_string(::getpid()) + ".iloc";
  for (const char *Src : {DuplicateTargetLoop, DuplicateTargetLoopTwoVars}) {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    ASSERT_NE(Out, nullptr);
    std::fputs(Src, Out);
    std::fclose(Out);
    ParseResult In = parseModule(Src);
    ASSERT_TRUE(In.ok()) << In.Error;
    const int64_t Want = runOn(*In.M->Functions[0], 0);
    for (const char *Level : {"reassociation", "distribution"}) {
      ParseResult R = parseModule(runEpreOpt(Path, std::string("-O=") + Level));
      ASSERT_TRUE(R.ok()) << Level << ": " << R.Error;
      ASSERT_EQ(R.M->Functions.size(), 1u) << Level;
      EXPECT_EQ(runOn(*R.M->Functions[0], 0), Want) << Level;
      EXPECT_EQ(runOn(*R.M->Functions[0], 1), Want) << Level;
    }
  }
  std::remove(Path.c_str());
}

TEST(Pipeline, StatsArePopulated) {
  LowerResult LR = compileMiniFortran(Workload, NamingMode::Naive);
  ASSERT_TRUE(LR.ok());
  Function &F = *LR.M->find("work");
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PipelineStats S = optimizeFunction(F, PO);
  EXPECT_GT(S.opsBefore(), 0u);
  EXPECT_GT(S.opsAfter(), 0u);
  EXPECT_GT(S.phisRemoved(), 0u);
  EXPECT_GT(S.gvnClasses(), 0u);
  EXPECT_GT(S.preUniverse(), 0u);
  EXPECT_GT(S.preDeleted(), 0u);
}

/// Compiles loopChain(Loops) at the distribution level with speculative
/// PRE, trained on a profile of the unoptimized run.
PipelineStats compileChainSpeculative(unsigned Loops) {
  LowerResult LR = compileMiniFortran(loopChain(Loops), NamingMode::Naive);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  if (!LR.ok())
    return PipelineStats();
  Function &F = *LR.M->find("chain");
  MemoryImage Mem(LR.Routines[0].LocalMemBytes);
  ProfileCollector PC;
  interpret(F,
            {RtValue::ofF(1.5), RtValue::ofF(2.25), RtValue::ofI(24),
             RtValue::ofI(16)},
            Mem, ExecLimits(), &PC);
  ProfileDoc Doc;
  Doc.Profiles.push_back(PC.finalize(F));
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Naming = InputNaming::Naive;
  PO.Strategy = PREStrategy::Speculative;
  PO.ProfileIn = &Doc;
  return optimizeFunction(F, PO);
}

TEST(Pipeline, SpeculativeFixpointConvergesBeforeTheRoundCap) {
  for (unsigned Loops : {16u, 64u}) {
    PipelineStats S = compileChainSpeculative(Loops);
    EXPECT_GT(S.get("pre", "speculated"), 0u) << Loops << " loops";
    EXPECT_GT(S.get("pre", "rounds"), 0u) << Loops << " loops";
    EXPECT_EQ(S.get("pre", "round_cap_hit"), 0u) << Loops << " loops";
  }
}

/// The complexity ratchet for the baseline tail: each pass's deterministic
/// work count may grow at most 4.5x when the loop chain grows 4x
/// (near-linear; the dense structures it replaced grew about 10x). The
/// passes run on the pipeline's own state just before its tail.
TEST(Complexity, BaselineTailWorkGrowsNearLinearly) {
  auto tailWork = [](unsigned Loops) {
    auto lower = [Loops] {
      LowerResult LR = compileMiniFortran(loopChain(Loops), NamingMode::Naive);
      EXPECT_TRUE(LR.ok()) << LR.Error;
      return std::move(LR.M);
    };
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Naming = InputNaming::Naive;
    auto Traced = lower();
    PassPrefixResult Full =
        optimizeFunctionPrefix(*Traced->find("chain"), PO, ~0u);
    auto FirstTail = std::find(Full.Trace.begin(), Full.Trace.end(), "sccp");
    EXPECT_NE(FirstTail, Full.Trace.end());
    auto M = lower();
    Function &F = *M->find("chain");
    optimizeFunctionPrefix(F, PO, unsigned(FirstTail - Full.Trace.begin()));
    return std::array<uint64_t, 4>{runPass(F, SCCPPass()).lastWork(),
                                   runPass(F, PeepholePass()).lastWork(),
                                   runPass(F, DCEPass()).lastWork(),
                                   runPass(F, CopyCoalescingPass()).lastWork()};
  };
  std::array<uint64_t, 4> Small = tailWork(32), Large = tailWork(128);
  const char *Names[] = {"sccp", "peephole", "dce", "coalesce"};
  for (unsigned P = 0; P < 4; ++P) {
    ASSERT_GT(Small[P], 0u) << Names[P];
    EXPECT_LE(double(Large[P]) / double(Small[P]), 4.5)
        << Names[P] << " work: " << Small[P] << " at 32 loops, " << Large[P]
        << " at 128";
  }
}

/// The same ratchet for AWZ value numbering (signature words hashed over
/// every refinement round plus the instructions renaming visits), on the
/// pipeline's own state just before gvn.
TEST(Complexity, GVNWorkGrowsNearLinearly) {
  auto gvnWork = [](unsigned Loops) {
    auto lower = [Loops] {
      LowerResult LR = compileMiniFortran(loopChain(Loops), NamingMode::Naive);
      EXPECT_TRUE(LR.ok()) << LR.Error;
      return std::move(LR.M);
    };
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Naming = InputNaming::Naive;
    auto Traced = lower();
    PassPrefixResult Full =
        optimizeFunctionPrefix(*Traced->find("chain"), PO, ~0u);
    auto GVN = std::find(Full.Trace.begin(), Full.Trace.end(), "gvn");
    EXPECT_NE(GVN, Full.Trace.end());
    auto M = lower();
    Function &F = *M->find("chain");
    optimizeFunctionPrefix(F, PO, unsigned(GVN - Full.Trace.begin()));
    return runPass(F, GVNPass()).lastWork();
  };
  uint64_t Small = gvnWork(32), Large = gvnWork(128);
  ASSERT_GT(Small, 0u);
  EXPECT_LE(double(Large) / double(Small), 4.5)
      << "gvn work: " << Small << " at 32 loops, " << Large << " at 128";
}

/// The same ratchet for PRE: words the AVAIL, ANT and LATERIN solves touch
/// in one PREPass run on the input to the pipeline's first pre round. The
/// solves are dense over blocks x expressions, both of which grow with the
/// chain: 51,832 words at 32 loops and 771,784 at 128, a ratio of 14.89.
/// The bound is that ratio rounded up to the next 0.5; solving each
/// expression over its own region (ROADMAP, per-expression PRE) lowers it
/// to 4.5.
TEST(Complexity, PREWorkGrowth) {
  auto preWork = [](unsigned Loops) {
    auto lower = [Loops] {
      LowerResult LR = compileMiniFortran(loopChain(Loops), NamingMode::Naive);
      EXPECT_TRUE(LR.ok()) << LR.Error;
      return std::move(LR.M);
    };
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Naming = InputNaming::Naive;
    auto Traced = lower();
    PassPrefixResult Full =
        optimizeFunctionPrefix(*Traced->find("chain"), PO, ~0u);
    auto PRE = std::find(Full.Trace.begin(), Full.Trace.end(), "pre");
    EXPECT_NE(PRE, Full.Trace.end());
    auto M = lower();
    Function &F = *M->find("chain");
    optimizeFunctionPrefix(F, PO, unsigned(PRE - Full.Trace.begin()));
    return runPass(F, PREPass()).lastWork();
  };
  uint64_t Small = preWork(32), Large = preWork(128);
  ASSERT_GT(Small, 0u);
  EXPECT_LE(double(Large) / double(Small), 15.0)
      << "pre work: " << Small << " at 32 loops, " << Large << " at 128";
}

/// The ratchet for PRE's incremental rounds: one PRESession driven round
/// by round on the input to the 128-loop chain's first pre round. Before
/// sessions every round re-solved every expression, and rounds 2-6 did
/// 3,104,513 words of AVAIL, ANT and LATERIN work against round 1's
/// 771,784 (4.02x); the final round, which changes nothing, did 587,400
/// (76%). A session re-solves only what the previous round touched: rounds
/// 2-6 do 710,327 words (0.92x) and the final round 35,600 (4.6%).
TEST(Complexity, PRELaterRoundsAreIncremental) {
  auto lower = [] {
    LowerResult LR = compileMiniFortran(loopChain(128), NamingMode::Naive);
    EXPECT_TRUE(LR.ok()) << LR.Error;
    return std::move(LR.M);
  };
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Naming = InputNaming::Naive;
  auto Traced = lower();
  PassPrefixResult Full =
      optimizeFunctionPrefix(*Traced->find("chain"), PO, ~0u);
  auto PRE = std::find(Full.Trace.begin(), Full.Trace.end(), "pre");
  ASSERT_NE(PRE, Full.Trace.end());
  auto M = lower();
  Function &F = *M->find("chain");
  optimizeFunctionPrefix(F, PO, unsigned(PRE - Full.Trace.begin()));

  PRESession Session(F, PREStrategy::LazyCodeMotion);
  StatsRegistry SR;
  PassContext Ctx(&SR);
  std::vector<uint64_t> Work;
  while (Work.size() < 16) {
    PREStats S = Session.run(Ctx);
    Work.push_back(S.Work);
    if (S.Inserted == 0 && S.Deleted == 0)
      break;
  }
  ASSERT_GE(Work.size(), 2u);
  uint64_t Later = 0;
  for (size_t R = 1; R < Work.size(); ++R)
    Later += Work[R];
  std::string Rounds;
  for (uint64_t W : Work) {
    Rounds += ' ';
    Rounds += std::to_string(W);
  }
  EXPECT_LE(double(Later), 2.5 * double(Work[0])) << "round work:" << Rounds;
  EXPECT_LE(double(Work.back()), 0.10 * double(Work[0]))
      << "round work:" << Rounds;
}

std::unique_ptr<Module> parseIloc(const std::string &Text) {
  ParseResult PR = parseModule(Text);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

/// The work SSABuildPass and ForwardPropPass report on the function of
/// \p Lower(Size), run on the pipeline's own state just before ssa.build at
/// the reassociation level. The trace of \p Lower(8) locates ssa.build.
template <typename LowerFn>
std::array<uint64_t, 2> ssaAndFwdPropWork(LowerFn Lower, unsigned Size) {
  PipelineOptions PO;
  PO.Level = OptLevel::Reassociation;
  PO.Naming = InputNaming::Naive;
  auto Traced = Lower(8);
  PassPrefixResult Full =
      optimizeFunctionPrefix(*Traced->Functions[0], PO, ~0u);
  auto SSA = std::find(Full.Trace.begin(), Full.Trace.end(), "ssa.build");
  EXPECT_NE(SSA, Full.Trace.end());
  auto M = Lower(Size);
  Function &F = *M->Functions[0];
  optimizeFunctionPrefix(F, PO, unsigned(SSA - Full.Trace.begin()));
  uint64_t Build = runPass(F, SSABuildPass()).lastWork();
  RankMap Ranks = RankMap::compute(F, CFG::compute(F));
  return {Build, runPass(F, ForwardPropPass(Ranks)).lastWork()};
}

/// The ratchet for SSA construction and forward propagation, on a loop
/// carrying K variables around a ring (K = 1,000 -> 4,000) and on the loop
/// chain (64 -> 256 loops). Each work count may grow at most 4.5x per 4x;
/// all four measure 3.99-4.00x.
/// With ordered maps, front-inserted phis and an export order that
/// rescanned every item per pick, the ring took 124 ms in ssa.build and
/// 85.8 s in fwdprop at K = 4,000 (Release).
TEST(Complexity, SSAAndFwdPropOnCarriedVariables) {
  auto Ring = [](unsigned K) { return parseIloc(carriedRing(K)); };
  auto Chain = [](unsigned Loops) {
    LowerResult LR = compileMiniFortran(loopChain(Loops), NamingMode::Naive);
    EXPECT_TRUE(LR.ok()) << LR.Error;
    return std::move(LR.M);
  };
  struct Shape {
    const char *Name;
    std::array<uint64_t, 2> Small, Large;
  } Shapes[] = {
      {"ring 1000 -> 4000", ssaAndFwdPropWork(Ring, 1000),
       ssaAndFwdPropWork(Ring, 4000)},
      {"loopChain 64 -> 256", ssaAndFwdPropWork(Chain, 64),
       ssaAndFwdPropWork(Chain, 256)},
  };
  const char *Names[] = {"ssa.build", "fwdprop"};
  for (const Shape &S : Shapes)
    for (unsigned P = 0; P < 2; ++P) {
      ASSERT_GT(S.Small[P], 0u) << S.Name << " " << Names[P];
      EXPECT_LE(double(S.Large[P]) / double(S.Small[P]), 4.5)
          << S.Name << " " << Names[P] << " work: " << S.Small[P] << " -> "
          << S.Large[P];
    }
}

/// A loop carrying 2,000 variables around a ring keeps its result through
/// the reassociation pipeline.
TEST(Pipeline, CarriedRingKeepsItsResultAtReassociation) {
  auto M = parseIloc(carriedRing(2000));
  Function &F = *M->Functions[0];
  int64_t Expected = runOn(F, 3);
  PipelineOptions PO;
  PO.Level = OptLevel::Reassociation;
  PO.Naming = InputNaming::Naive;
  optimizeFunction(F, PO);
  EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty());
  EXPECT_EQ(runOn(F, 3), Expected);
}

TEST(Pipeline, InvertedComparisonNormalized) {
  // .not. (i .lt. n) must become i .ge. n (one op, not cmp+xor).
  const char *Src = R"(
function inv(i, n)
  integer i, n, inv
  if (.not. (i .lt. n)) then
    inv = 1
  else
    inv = 0
  end if
  return
end
)";
  LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  Function &F = *LR.M->find("inv");
  PipelineOptions PO;
  PO.Level = OptLevel::Baseline;
  optimizeFunction(F, PO);
  unsigned Xors = 0, Cmps = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      Xors += I.Op == Opcode::Xor;
      Cmps += isComparison(I.Op);
    }
  });
  EXPECT_EQ(Xors, 0u) << printFunction(F);
  EXPECT_EQ(Cmps, 1u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(5), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            1);
  EXPECT_EQ(interpret(F, {RtValue::ofI(2), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            0);
}

} // namespace
