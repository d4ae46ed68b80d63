//===- Runner.cpp - Compile-and-simulate convenience -------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Runner.h"

#include "obs/Trace.h"
#include "ocl/ParallelSim.h"
#include "support/Support.h"

using namespace lift;
using namespace lift::codegen;
using namespace lift::ocl;

RunResult lift::codegen::runCompiled(
    const Compiled &C, const std::vector<std::vector<float>> &Inputs,
    const SizeEnv &Sizes, const CacheConfig &Cache, unsigned Jobs) {
  if (Inputs.size() != C.InputBufferIds.size())
    fatalError("runCompiled: input count mismatch");
  checkLaunchExtents(C.K, Sizes);
  obs::Span SimSpan("simulate", "sim");
  SimSpan.arg("kernel", C.K.Name);
  SimSpan.arg("jobs", std::int64_t(Jobs));
  // Outputs and counters are bit-identical for every Jobs value and to
  // the reference ocl::Executor (see ParallelSim.h).
  ParallelExecutor Ex(C.K, Sizes, Cache, Jobs);
  for (std::size_t I = 0, E = Inputs.size(); I != E; ++I)
    Ex.bindInput(C.InputBufferIds[I], Inputs[I]);
  Ex.run();
  RunResult R;
  R.Output = Ex.bufferContents(C.OutputBufferId);
  R.Counters = Ex.counters();
  R.NDRange = analyzeNDRange(C.K, Sizes);
  // Whole-process roll-up. Not part of the jobs-invariant metric set:
  // tuner-level memoization can skip entire executions, so these totals
  // legitimately depend on the memo hit pattern (the per-candidate
  // roll-ups under "tuner.sim." are the deterministic ones).
  exportCountersToMetrics(R.Counters, "sim.");
  return R;
}

RunResult lift::codegen::runOnSim(
    const ir::Program &P, const std::vector<std::vector<float>> &Inputs,
    const SizeEnv &Sizes, const CacheConfig &Cache, unsigned Jobs) {
  Compiled C = compileProgram(P, "kernel_fn");
  return runCompiled(C, Inputs, Sizes, Cache, Jobs);
}
