//===- bench/ablation_pre_variants.cpp - PRE formulation ablation ---------===//
///
/// Ablations over the suite:
///
///  1. PRE formulation: Drechsler–Stadel lazy code motion (the paper's
///     choice [14]) vs the original Morel–Renvoise bidirectional system vs
///     plain available-expressions CSE.
///  2. The enabling transformations in isolation: reassociation with and
///     without FP reassociation, and with and without distribution.
///
//===----------------------------------------------------------------------===//

#include "suite/Harness.h"

#include <cstdio>

using namespace epre;

namespace {

uint64_t totalOps(OptLevel L, PREStrategy S, bool FPReassoc = true,
                  GVNEngine Engine = GVNEngine::AWZ) {
  uint64_t Total = 0;
  for (const Routine &R : benchmarkSuite()) {
    PipelineOptions PO;
    PO.Level = L;
    PO.Strategy = S;
    PO.AllowFPReassoc = FPReassoc;
    PO.Engine = Engine;
    Measurement M = measureRoutine(R, L, &PO);
    if (!M.ok()) {
      std::printf("  (%s failed: %s)\n", R.Name.c_str(),
                  M.CompileOk ? M.TrapReason.c_str()
                              : M.CompileError.c_str());
      continue;
    }
    Total += M.DynOps;
  }
  return Total;
}

} // namespace

int main() {
  std::printf("Ablation: total dynamic operations over the 50-routine "
              "suite\n\n");

  uint64_t Baseline = totalOps(OptLevel::Baseline, PREStrategy::LazyCodeMotion);
  std::printf("%-52s %12llu\n", "baseline (no PRE)",
              (unsigned long long)Baseline);

  std::printf("\nPRE formulation (at the 'partial' level):\n");
  uint64_t CSE = totalOps(OptLevel::Partial, PREStrategy::GlobalCSE);
  uint64_t MR = totalOps(OptLevel::Partial, PREStrategy::MorelRenvoise);
  uint64_t LCM = totalOps(OptLevel::Partial, PREStrategy::LazyCodeMotion);
  std::printf("%-52s %12llu\n", "available-expressions CSE (full only)",
              (unsigned long long)CSE);
  std::printf("%-52s %12llu\n", "Morel-Renvoise (block-end insertions)",
              (unsigned long long)MR);
  std::printf("%-52s %12llu\n", "Drechsler-Stadel lazy code motion",
              (unsigned long long)LCM);

  std::printf("\nEnabling transformations (full pipeline):\n");
  uint64_t ReaNoFP = totalOps(OptLevel::Reassociation,
                              PREStrategy::LazyCodeMotion, false);
  uint64_t Rea = totalOps(OptLevel::Reassociation,
                          PREStrategy::LazyCodeMotion, true);
  uint64_t Dist = totalOps(OptLevel::Distribution,
                           PREStrategy::LazyCodeMotion, true);
  uint64_t DistMR = totalOps(OptLevel::Distribution,
                             PREStrategy::MorelRenvoise, true);
  std::printf("%-52s %12llu\n", "reassociation, integer only (no FP "
              "reassoc)", (unsigned long long)ReaNoFP);
  std::printf("%-52s %12llu\n", "reassociation (FORTRAN FP rules)",
              (unsigned long long)Rea);
  std::printf("%-52s %12llu\n", "distribution",
              (unsigned long long)Dist);
  std::printf("%-52s %12llu\n", "distribution + Morel-Renvoise PRE",
              (unsigned long long)DistMR);
  uint64_t DistDVNT = totalOps(OptLevel::Distribution,
                               PREStrategy::LazyCodeMotion, true,
                               GVNEngine::DVNT);
  std::printf("%-52s %12llu\n",
              "distribution + hash-based VN engine (DVNT)",
              (unsigned long long)DistDVNT);

  std::printf("\nExpected ordering: CSE >= MR >= LCM (more redundancies "
              "removed),\nand integer-only reassociation forgoes most of "
              "the FP-heavy wins.\n");
  return 0;
}
