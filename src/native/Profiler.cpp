//===- Profiler.cpp - In-kernel profiling driver ----------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "native/Profiler.h"

#include "codegen/AccessAnalysis.h"

using namespace lift;
using namespace lift::native;

ProfiledKernelRun lift::native::profileKernel(
    const codegen::Compiled &C, std::uint64_t LoweredHash,
    const std::vector<std::vector<float>> &Inputs, const ocl::SizeEnv &Sizes,
    unsigned Warmup, unsigned Repeats, const NativeOptions &O,
    const MachinePeaks *Peaks) {
  NativeOptions PO = O;
  PO.Profile = true;
  // Separate cache identity for the instrumented binary.
  NativeKernelPtr Kern = KernelCache::global().getOrCompile(
      LoweredHash ^ 0x9E3779B97F4A7C15ULL, C.K, PO);

  // The binary runs specializeForNative(C.K): a split loop's three
  // loops are one region, and a folded tiled kernel has the regions of
  // its grid nest. Check that the emitted timers index exactly that
  // many slots before running it.
  ocl::Kernel Spec = specializeForNative(C.K);
  std::vector<KernelRegion> Regions = profileRegions(Spec);
  const std::string &Src = Kern->source();
  std::size_t Timers = 0;
  for (std::size_t At = Src.find("] += lift_prof_now()");
       At != std::string::npos;
       At = Src.find("] += lift_prof_now()", At + 1))
    ++Timers;
  if (Timers != Regions.size())
    throw NativeError("native backend: profiled kernel times " +
                      std::to_string(Timers) + " regions, expected " +
                      std::to_string(Regions.size()));
  NativeProfiledResult Run = runNativeProfiled(
      C, *Kern, Inputs, Sizes, Regions.size(), Warmup, Repeats);

  ProfiledKernelRun Out;
  Out.Output = std::move(Run.R.Output);
  Out.P.KernelName = C.K.Name;
  Out.P.TotalSeconds = Run.R.Seconds;
  if (Peaks) {
    Out.P.PeakGBPerSec = Peaks->GBPerSec;
    Out.P.PeakGFlopsPerSec = Peaks->GFlopsPerSec;
  }
  for (std::size_t I = 0; I != Regions.size(); ++I) {
    codegen::RegionWork W;
    for (const ocl::Stmt *L : Regions[I].Loops) {
      codegen::RegionWork LW = codegen::staticRegionWork(Spec, *L, Sizes);
      W.Iterations += LW.Iterations;
      W.BytesRead += LW.BytesRead;
      W.BytesWritten += LW.BytesWritten;
      W.Flops += LW.Flops;
    }
    obs::ProfileRegion R;
    R.Name = Regions[I].Name;
    R.Kind = Regions[I].Kind;
    R.Seconds = I < Run.RegionSeconds.size() ? Run.RegionSeconds[I] : 0.0;
    R.Iterations = W.Iterations;
    R.BytesRead = W.BytesRead;
    R.BytesWritten = W.BytesWritten;
    R.Flops = W.Flops;
    Out.P.Regions.push_back(std::move(R));
  }
  return Out;
}
