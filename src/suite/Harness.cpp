//===- suite/Harness.cpp --------------------------------------------------===//

#include "suite/Harness.h"

#include "analysis/CFG.h"
#include "frontend/Lower.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Ranks.h"
#include "ssa/SSA.h"

using namespace epre;

NamingMode epre::namingForLevel(OptLevel L) {
  return L == OptLevel::Partial ? NamingMode::Hashed : NamingMode::Naive;
}

Measurement epre::measureRoutine(const Routine &R, OptLevel Level,
                                 const PipelineOptions *Overrides,
                                 bool CollectProfile) {
  Measurement M;
  LowerResult LR = compileMiniFortran(R.Source, namingForLevel(Level));
  if (!LR.ok()) {
    M.CompileError = LR.Error;
    return M;
  }
  M.CompileOk = true;
  Function *F = LR.M->find(R.Name);
  if (!F) {
    M.CompileOk = false;
    M.CompileError = "routine '" + R.Name + "' not found after lowering";
    return M;
  }
  M.StaticOpsBefore = F->staticOperationCount();

  size_t LocalBytes = 0;
  for (const RoutineInfo &RI : LR.Routines)
    if (RI.Name == R.Name)
      LocalBytes = RI.LocalMemBytes;

  PipelineOptions Proto;
  if (Overrides)
    Proto = *Overrides;
  Proto.Level = Level;
  Proto.Naming = namingForLevel(Level) == NamingMode::Hashed
                     ? InputNaming::Hashed
                     : InputNaming::Naive;

  // Speculative PRE needs a dynamic profile. When the caller did not
  // supply one, the routine profiles itself: run the unoptimized lowering
  // on the routine's own driver inputs and feed that block/edge profile
  // to the pipeline — the suite analogue of a training run.
  ProfileDoc SelfProfile;
  if (Proto.Strategy == PREStrategy::Speculative && !Proto.ProfileIn) {
    MemoryImage ProfMem(LocalBytes);
    std::vector<RtValue> ProfArgs =
        R.MakeArgs ? R.MakeArgs(ProfMem) : std::vector<RtValue>{};
    ProfileCollector PC;
    interpret(*F, ProfArgs, ProfMem, ExecLimits(), &PC);
    SelfProfile.Profiles.push_back(PC.finalize(*F));
    Proto.ProfileIn = &SelfProfile;
  }

  std::string Err;
  std::optional<PipelineOptions> PO = PipelineOptions::create(Proto, &Err);
  if (!PO) {
    M.CompileOk = false;
    M.CompileError = "inconsistent pipeline options: " + Err;
    return M;
  }
  M.Stats = optimizeFunction(*F, *PO);
  M.StaticOpsAfter = F->staticOperationCount();
  MemoryImage Mem(LocalBytes);
  std::vector<RtValue> Args = R.MakeArgs ? R.MakeArgs(Mem)
                                         : std::vector<RtValue>{};
  ProfileCollector Prof;
  ExecResult E = interpret(*F, Args, Mem, ExecLimits(),
                           CollectProfile ? &Prof : nullptr);
  M.Trapped = E.Trapped;
  M.TrapReason = E.TrapReason;
  M.DynOps = E.DynOps;
  M.WeightedCost = E.WeightedCost;
  M.HasReturn = E.HasReturn;
  M.ReturnValue = E.ReturnValue;
  M.MemHash = Mem.hash();
  if (CollectProfile) {
    M.Profile = Prof.finalize(*F);
    M.Profile.Level = optLevelName(Level);
    M.HasProfile = true;
  }
  return M;
}

/// The four measured levels, lowest first (None is not measured).
static const OptLevel MeasuredLevels[] = {
    OptLevel::Baseline, OptLevel::Partial, OptLevel::Reassociation,
    OptLevel::Distribution};

static int levelRank(const std::string &Name) {
  for (unsigned I = 0; I < 4; ++I)
    if (Name == optLevelName(MeasuredLevels[I]))
      return int(I);
  return -1;
}

std::vector<Degradation> epre::detectDegradations(const ProfileDoc &Doc) {
  std::vector<Degradation> Out;
  for (const FunctionProfile &Hi : Doc.Profiles) {
    int HiRank = levelRank(Hi.Level);
    if (HiRank < 0)
      continue;
    for (const FunctionProfile &Lo : Doc.Profiles) {
      if (Lo.Function != Hi.Function)
        continue;
      int LoRank = levelRank(Lo.Level);
      if (LoRank < 0 || LoRank >= HiRank || Hi.DynOps <= Lo.DynOps)
        continue;
      Out.push_back({Hi.Function, MeasuredLevels[LoRank],
                     MeasuredLevels[HiRank], Lo.DynOps, Hi.DynOps});
    }
  }
  return Out;
}

SuiteDynamicProfile epre::profileSuite(const std::vector<Routine> &Suite,
                                       const PipelineOptions *Overrides) {
  SuiteDynamicProfile S;
  for (OptLevel L : MeasuredLevels) {
    for (const Routine &R : Suite) {
      Measurement M = measureRoutine(R, L, Overrides, /*CollectProfile=*/true);
      if (!M.ok()) {
        ++S.Failures;
        continue;
      }
      // Keep the summary only: per-routine totals and class breakdowns are
      // what the regression baseline and Table-1 reporting need; per-block
      // detail is available from measureRoutine when wanted.
      M.Profile.Blocks.clear();
      S.Doc.Profiles.push_back(std::move(M.Profile));
    }
  }
  S.Degradations = detectDegradations(S.Doc);
  return S;
}

PipelineStats epre::measureForwardPropExpansion(const Routine &R) {
  PipelineStats S;
  LowerResult LR = compileMiniFortran(R.Source, NamingMode::Naive);
  Function *F = LR.ok() ? LR.M->find(R.Name) : nullptr;
  if (!F)
    return S;
  PassContext Ctx(&S.Registry);
  SSABuildPass().run(*F, Ctx);
  RankMap Ranks = RankMap::compute(*F, CFG::compute(*F));
  ForwardPropPass(Ranks).run(*F, Ctx);
  return S;
}
