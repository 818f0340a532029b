//===- perfbench/src/Compile.h - One compile, and its check ------*- C++ -*-===//
///
/// \file
/// The compile operation the suite, bigfn and exec workloads share: text in
/// (Mini-FORTRAN source or ILOC), optimized ILOC text out, through the
/// public entry points compileMiniFortran / parseModule, verifyFunction,
/// optimizeFunction and printFunction, each under its own span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPILE_H
#define PERFBENCH_COMPILE_H

#include "Common.h"

#include "frontend/Lower.h"
#include "pipeline/Pipeline.h"
#include "suite/Harness.h"
#include "suite/Suite.h"

#include <memory>

namespace perfbench {

/// One function to compile under one configuration, with the reference
/// outcome of its unoptimized code on its inputs.
struct CompileJob {
  std::string Name;
  bool Fortran = true;  ///< Input is Mini-FORTRAN (else ILOC text)
  std::string Input;
  epre::NamingMode Naming = epre::NamingMode::Naive;
  epre::PipelineOptions PO;
  /// Profile for speculative PRE; PO.ProfileIn points into it.
  std::shared_ptr<epre::ProfileDoc> Profile;
  bool FPLoose = false;
  unsigned SizeClass = 0;
  uint64_t InputInsts = 0;
  ExecInput In;
  Outcome Ref;
};

struct CompileOut {
  std::unique_ptr<epre::Module> M;
  epre::Function *F = nullptr;
  std::string Text;
  epre::PipelineStats Stats;
  std::string Error;
};

/// Compiles \p J once. \p PI (may be null) observes the pipeline.
CompileOut compileOnce(const CompileJob &J, Tracer &T,
                       epre::PassInstrumentation *PI);

/// Parses the printed output back, runs it on the job's inputs and
/// compares with the reference. Returns "" or the first difference;
/// \p DynOps receives the optimized run's operation count.
std::string checkCompiled(const CompileJob &J, const CompileOut &C, Tracer &T,
                          uint64_t &DynOps);

/// A suite routine at \p Level with the naming namingForLevel gives it, or
/// \p Naming when given. Fills the reference by lowering and interpreting
/// the routine unoptimized.
CompileJob makeSuiteJob(const epre::Routine &R, epre::OptLevel Level,
                        const epre::NamingMode *Naming = nullptr);

/// The 50 suite routines at the four measured levels (Table 1 order).
std::vector<CompileJob> makeSuiteJobs();

extern const epre::OptLevel MeasuredLevels[4];

} // namespace perfbench

#endif // PERFBENCH_COMPILE_H
