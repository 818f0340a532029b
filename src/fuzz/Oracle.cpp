//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/CFG.h"
#include "fuzz/ModuleOps.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "support/StringUtil.h"

#include <cmath>
#include <cstring>

using namespace epre;
using namespace epre::fuzz;

const char *fuzz::mismatchKindName(MismatchKind K) {
  switch (K) {
  case MismatchKind::None:
    return "none";
  case MismatchKind::Inconclusive:
    return "inconclusive";
  case MismatchKind::ReturnValue:
    return "return-value";
  case MismatchKind::Memory:
    return "memory";
  case MismatchKind::Trap:
    return "trap";
  case MismatchKind::VerifierFail:
    return "verifier-fail";
  }
  return "none";
}

bool fuzz::isMiscompile(MismatchKind K) {
  return K != MismatchKind::None && K != MismatchKind::Inconclusive;
}

std::vector<OracleConfig> fuzz::oracleConfigs(bool Quick) {
  auto Mk = [](const char *Name, OptLevel L, PREStrategy S, GVNEngine E,
               bool FPReassoc, bool SR, bool Loose) {
    OracleConfig C;
    C.Name = Name;
    C.PO.Level = L;
    C.PO.Strategy = S;
    C.PO.Engine = E;
    C.PO.Naming = InputNaming::Hashed;
    C.PO.AllowFPReassoc = FPReassoc;
    C.PO.EnableStrengthReduction = SR;
    // The oracle checks the optimized function itself (so a verifier
    // violation becomes a reported finding instead of an abort).
    C.PO.Verify = false;
    C.FPLoose = Loose;
    return C;
  };

  using L = OptLevel;
  using S = PREStrategy;
  using E = GVNEngine;

  std::vector<OracleConfig> Configs;
  // Bit-exact configs: integer arithmetic wraps and no pass reorders F64
  // here, so every observable must match the reference exactly.
  Configs.push_back(Mk("baseline", L::Baseline, S::LazyCodeMotion, E::AWZ,
                       true, false, false));
  Configs.push_back(Mk("partial/lcm", L::Partial, S::LazyCodeMotion, E::AWZ,
                       true, false, false));
  Configs.push_back(Mk("partial/gcse", L::Partial, S::GlobalCSE, E::AWZ, true,
                       false, false));
  // Reassociation with AllowFPReassoc=false only reorders integers:
  // bit-exact by policy, the strictest check the reassoc path gets.
  Configs.push_back(Mk("reassoc/strict/awz", L::Reassociation,
                       S::LazyCodeMotion, E::AWZ, false, false, false));
  // FP-loose configs: F64 compared within tolerance.
  Configs.push_back(Mk("reassoc/dvnt", L::Reassociation, S::LazyCodeMotion,
                       E::DVNT, true, false, true));
  Configs.push_back(Mk("dist/awz", L::Distribution, S::LazyCodeMotion, E::AWZ,
                       true, false, true));
  if (Quick)
    return Configs;

  Configs.push_back(Mk("baseline/sr", L::Baseline, S::LazyCodeMotion, E::AWZ,
                       true, true, false));
  Configs.push_back(Mk("partial/mr", L::Partial, S::MorelRenvoise, E::AWZ,
                       true, false, false));
  Configs.push_back(Mk("partial/lcm/sr", L::Partial, S::LazyCodeMotion,
                       E::AWZ, true, true, false));
  Configs.push_back(Mk("reassoc/strict/dvnt", L::Reassociation,
                       S::LazyCodeMotion, E::DVNT, false, false, false));
  Configs.push_back(Mk("reassoc/awz", L::Reassociation, S::LazyCodeMotion,
                       E::AWZ, true, false, true));
  Configs.push_back(Mk("reassoc/awz/mr", L::Reassociation, S::MorelRenvoise,
                       E::AWZ, true, false, true));
  Configs.push_back(Mk("reassoc/dvnt/gcse", L::Reassociation, S::GlobalCSE,
                       E::DVNT, true, false, true));
  // The strongest detector of a planted PRE availability fault: global CSE
  // over AWZ-renamed, reassociated code (docs/fuzzing.md).
  Configs.push_back(Mk("reassoc/awz/gcse", L::Reassociation, S::GlobalCSE,
                       E::AWZ, true, false, true));
  Configs.push_back(Mk("dist/dvnt/sr", L::Distribution, S::LazyCodeMotion,
                       E::DVNT, true, true, true));
  // Profile-guided speculative placement, driven by a synthetic
  // uniform-weight profile built per program (see OracleConfig).
  OracleConfig Spec = Mk("partial/speculative", L::Partial, S::Speculative,
                         E::AWZ, true, false, false);
  Spec.SyntheticProfile = true;
  Configs.push_back(Spec);
  OracleConfig SpecR = Mk("reassoc/dvnt/speculative", L::Reassociation,
                          S::Speculative, E::DVNT, true, false, true);
  SpecR.SyntheticProfile = true;
  Configs.push_back(SpecR);
  return Configs;
}

bool fuzz::findOracleConfig(const std::string &Name, bool Quick,
                            OracleConfig &Out) {
  for (const OracleConfig &C : oracleConfigs(Quick))
    if (C.Name == Name) {
      Out = C;
      return true;
    }
  return false;
}

ReferenceRun fuzz::runReference(const FuzzProgram &P,
                                const OracleOptions &O) {
  ReferenceRun Out;
  Out.Mem = MemoryImage(P.MemBytes);
  std::string Err;
  std::unique_ptr<Module> M = parseModuleText(P.Text, &Err);
  if (!M || M->Functions.empty()) {
    Out.ParseError = Err.empty() ? "module has no functions" : Err;
    return Out;
  }
  // Only verified text is interpreted: what the verifier rejects has no
  // defined behavior to compare against.
  std::vector<std::string> Errors = verifyModule(*M, SSAMode::Relaxed);
  if (!Errors.empty()) {
    Out.ParseError = "verifier: " + Errors.front();
    return Out;
  }
  Out.ParseOk = true;
  ExecLimits Limits;
  Limits.MaxOps = O.RefMaxOps;
  Out.R = interpret(*M->Functions[0], P.Args, Out.Mem, Limits);
  return Out;
}

namespace {

bool f64Close(double Ref, double Got, double Tol) {
  if (std::memcmp(&Ref, &Got, sizeof(double)) == 0)
    return true; // bit-identical, including matching NaN payloads
  if (std::isnan(Ref) && std::isnan(Got))
    return true;
  return std::fabs(Ref - Got) <= Tol * (1.0 + std::fabs(Ref));
}

/// Synthetic uniform-weight profile of \p F: every reachable block and
/// every CFG edge counts the same, so speculative PRE sees a fully-known
/// profile and its min cut is free to speculate anywhere structure allows.
FunctionProfile uniformProfile(const Function &F) {
  constexpr uint64_t W = 16;
  CFG G = CFG::compute(F);
  FunctionProfile FP;
  FP.Function = F.name();
  F.forEachBlock([&](const BasicBlock &B) {
    if (!G.isReachable(B.id()))
      return;
    BlockProfile BP;
    BP.Label = B.label();
    BP.Count = W;
    for (BlockId Succ : G.succs(B.id()))
      BP.Edges.push_back({F.block(Succ)->label(), W});
    FP.Blocks.push_back(std::move(BP));
  });
  return FP;
}

/// Compares the two memory images; empty Detail means they agree.
std::string compareMemory(const FuzzProgram &P, const MemoryImage &Ref,
                          const MemoryImage &Got, bool Loose, double Tol) {
  if (Ref.size() != Got.size())
    return strprintf("memory sizes differ (%zu vs %zu bytes)", Ref.size(),
                     Got.size());
  // Without a typed layout (or under a bit-exact config) the chunked hash
  // is the comparison.
  if (P.MemWords.empty() || !Loose) {
    if (Ref.hash() != Got.hash())
      return "memory image hashes differ";
    return "";
  }
  for (size_t W = 0; W * 8 + 8 <= Ref.size(); ++W) {
    int64_t Addr = int64_t(W * 8);
    Type Ty = W < P.MemWords.size() ? P.MemWords[W] : Type::I64;
    if (Ty == Type::I64) {
      if (Ref.loadI64(Addr) != Got.loadI64(Addr))
        return strprintf("i64 word at address %lld differs (%lld vs %lld)",
                         (long long)Addr, (long long)Ref.loadI64(Addr),
                         (long long)Got.loadI64(Addr));
    } else if (!f64Close(Ref.loadF64(Addr), Got.loadF64(Addr), Tol)) {
      return strprintf("f64 word at address %lld differs (%g vs %g)",
                       (long long)Addr, Ref.loadF64(Addr), Got.loadF64(Addr));
    }
  }
  return "";
}

} // namespace

ConfigOutcome fuzz::runConfigOnce(const FuzzProgram &P, const OracleConfig &C,
                                  const OracleOptions &O,
                                  unsigned PrefixPasses) {
  return runConfigOnce(P, C, O, runReference(P, O), PrefixPasses);
}

ConfigOutcome fuzz::runConfigOnce(const FuzzProgram &P, const OracleConfig &C,
                                  const OracleOptions &O,
                                  const ReferenceRun &Ref,
                                  unsigned PrefixPasses) {
  ConfigOutcome Out;

  if (!Ref.ParseOk) {
    Out.Kind = MismatchKind::Inconclusive;
    Out.Detail = "reference rejected: " + Ref.ParseError;
    return Out;
  }
  Out.RefDynOps = Ref.R.DynOps;
  if (Ref.R.Kind == TrapKind::FuelExhausted) {
    Out.Kind = MismatchKind::Inconclusive;
    Out.Detail = "reference exhausted its fuel";
    return Out;
  }

  std::unique_ptr<Module> M = parseModuleText(P.Text);
  Function &F = *M->Functions[0];
  ProfileDoc Synthetic;
  PipelineOptions PO = C.PO;
  if (C.SyntheticProfile) {
    Synthetic.Profiles.push_back(uniformProfile(F));
    PO.ProfileIn = &Synthetic;
  }
  if (PrefixPasses == ~0u)
    optimizeFunction(F, PO);
  else
    optimizeFunctionPrefix(F, PO, PrefixPasses);

  std::vector<std::string> Errors = verifyFunction(F, SSAMode::Relaxed);
  if (!Errors.empty()) {
    Out.Kind = MismatchKind::VerifierFail;
    Out.Detail = Errors.front();
    return Out;
  }

  MemoryImage Mem(P.MemBytes);
  ExecLimits Limits;
  // Generous but bounded: a correct optimization never grows DynOps past a
  // small factor, so a diverged infinite loop still terminates the run.
  Limits.MaxOps = Ref.R.DynOps * 4 + 4096;
  ExecResult Got = interpret(F, P.Args, Mem, Limits);
  Out.OptDynOps = Got.DynOps;

  if (Ref.R.Trapped) {
    // The reference trapped for a genuine reason: the optimized program
    // must trap the same way. Memory/DynOps are not compared — motion of
    // pure expressions may legally reach the (inevitable) trap earlier.
    if (!Got.Trapped || Got.Kind != Ref.R.Kind) {
      Out.Kind = MismatchKind::Trap;
      Out.Detail = strprintf("reference trapped (%s) but optimized %s",
                             trapKindName(Ref.R.Kind),
                             Got.Trapped ? trapKindName(Got.Kind)
                                         : "ran clean");
    }
    return Out;
  }

  if (Got.Trapped) {
    Out.Kind = MismatchKind::Trap;
    Out.Detail = strprintf("optimized run trapped (%s: %s)",
                           trapKindName(Got.Kind), Got.TrapReason.c_str());
    return Out;
  }

  if (Got.HasReturn != Ref.R.HasReturn) {
    Out.Kind = MismatchKind::ReturnValue;
    Out.Detail = "return-value presence differs";
    return Out;
  }
  if (Ref.R.HasReturn) {
    const RtValue &RV = Ref.R.ReturnValue, &GV = Got.ReturnValue;
    if (RV.Ty != GV.Ty) {
      Out.Kind = MismatchKind::ReturnValue;
      Out.Detail = "return types differ";
      return Out;
    }
    bool Ok = RV.Ty == Type::I64
                  ? RV.I == GV.I
                  : (C.FPLoose ? f64Close(RV.F, GV.F, O.FPTolerance)
                               : RV.identical(GV));
    if (!Ok) {
      Out.Kind = MismatchKind::ReturnValue;
      Out.Detail = RV.Ty == Type::I64
                       ? strprintf("returned %lld, expected %lld",
                                   (long long)GV.I, (long long)RV.I)
                       : strprintf("returned %g, expected %g", GV.F, RV.F);
      return Out;
    }
  }

  std::string MemWhy =
      compareMemory(P, Ref.Mem, Mem, C.FPLoose, O.FPTolerance);
  if (!MemWhy.empty()) {
    Out.Kind = MismatchKind::Memory;
    Out.Detail = MemWhy;
    return Out;
  }

  // Weak check, full runs only: the paper's claim is that optimization
  // reduces dynamic operations. Growth past 1.5x + slack is a quality
  // bug worth flagging, never a soundness verdict.
  if (PrefixPasses == ~0u && C.PO.Level != OptLevel::None)
    Out.WeakDynOpsViolation =
        Got.DynOps > Ref.R.DynOps + Ref.R.DynOps / 2 + 128;
  return Out;
}

OracleResult fuzz::runDifferentialOracle(
    const FuzzProgram &P, const OracleOptions &O,
    const std::vector<OracleConfig> &Configs) {
  OracleResult R;
  // One reference execution shared by the whole config matrix: the old code
  // re-parsed and re-interpreted the unoptimized program once per config.
  ReferenceRun Ref = runReference(P, O);
  for (const OracleConfig &C : Configs) {
    ConfigOutcome Out = runConfigOnce(P, C, O, Ref);
    ++R.ConfigsRun;
    if (Out.Kind == MismatchKind::Inconclusive) {
      R.Inconclusive = true;
      break; // the reference will exhaust fuel for every config
    }
    if (isMiscompile(Out.Kind)) {
      R.Mismatch = true;
      R.Findings.push_back({C.Name, Out.Kind, Out.Detail});
    }
    if (Out.WeakDynOpsViolation)
      R.WeakWarnings.push_back(strprintf(
          "%s: DynOps grew %llu -> %llu", C.Name.c_str(),
          (unsigned long long)Out.RefDynOps,
          (unsigned long long)Out.OptDynOps));
  }
  return R;
}
