//===- Sim.h - Instrumented NDRange simulator ------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OpenCL-runtime substitute: executes kernel ASTs with NDRange
/// semantics and instruments the memory system.
///
/// The paper ran on real GPUs; we have none, so this simulator executes
/// the *same kernels our code generator emits* and measures the effects
/// the paper's results hinge on:
///
///  * every global load/store is pushed through a line-granular cache
///    model, so coalescing (strided lanes touch many lines) and data
///    reuse (neighboring work-items hit each other's lines) are
///    *measured*, not assumed;
///  * local-memory traffic, barriers, loop overhead and user-function
///    arithmetic are counted;
///  * work-group/work-item structure is honored: a Lcl loop completes
///    for all local ids before the next statement runs, giving barrier
///    semantics; Wrg iterations are independent work-groups.
///
/// A DeviceModel (Device.h) converts the measured counters into a
/// predicted runtime for a particular GPU.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_SIM_H
#define LIFT_OCL_SIM_H

#include "ocl/KernelAst.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lift {
namespace ocl {

/// Concrete bindings for symbolic size variables, keyed by ArithExpr
/// variable id.
using SizeEnv = std::unordered_map<unsigned, std::int64_t>;

/// Cache geometry used while executing (models the GPU's last-level
/// cache in front of DRAM).
struct CacheConfig {
  int LineBytes = 128;
  std::int64_t TotalBytes = 1256 * 1024;
  /// Direct-mapped if 1; N-way set associative (LRU) otherwise.
  int Ways = 4;
};

/// Event counters accumulated over one kernel execution.
struct ExecCounters {
  std::uint64_t GlobalLoads = 0;
  std::uint64_t GlobalStores = 0;
  std::uint64_t GlobalLoadLineMisses = 0;
  std::uint64_t LocalLoads = 0;
  std::uint64_t LocalStores = 0;
  std::uint64_t PrivateAccesses = 0;
  std::uint64_t Flops = 0;          ///< weighted user-function work
  std::uint64_t UserFunCalls = 0;
  std::uint64_t LoopIterations = 0; ///< total iterations entered
  std::uint64_t Barriers = 0;       ///< barrier executions (per group)
  std::uint64_t SelectEvals = 0;    ///< bounds checks evaluated
};

/// Static NDRange shape derived from the kernel's loop structure with
/// sizes bound: how many work-items/groups an exact-fit launch needs.
struct NDRangeInfo {
  std::int64_t GlobalSize[3] = {1, 1, 1}; ///< work-items per dim
  std::int64_t NumGroups[3] = {1, 1, 1};  ///< work-groups per dim
  std::int64_t LocalSize[3] = {1, 1, 1};  ///< work-items per group
  bool UsesWorkGroups = false; ///< kernel has Wrg/Lcl structure
  std::int64_t LocalMemBytes = 0; ///< local memory per work-group

  std::int64_t totalWorkItems() const;
  std::int64_t totalWorkGroups() const;
};

/// Computes the exact-fit NDRange shape of \p K under \p Sizes.
NDRangeInfo analyzeNDRange(const Kernel &K, const SizeEnv &Sizes);

/// Throws RecoverableError when \p Sizes violate one of \p K's
/// MinExtents, naming the axis, its extent and the tile. Every runner
/// (codegen::runCompiled, native::runNative) checks before it touches
/// memory, so a tiling lowered at symbolic extents and launched on an
/// axis shorter than its tile fails cleanly instead of loading out of
/// bounds.
void checkLaunchExtents(const Kernel &K, const SizeEnv &Sizes);

/// Adds one execution's counters into the global metrics registry
/// (obs/Metrics.h) under \p Prefix (e.g. "sim." -> "sim.global_loads").
/// Used by the runner for whole-process roll-ups and by the tuner for
/// its per-candidate deterministic roll-ups.
void exportCountersToMetrics(const ExecCounters &C,
                             const std::string &Prefix);

/// Executes kernels functionally while counting events, by walking the
/// kernel AST. This is the reference oracle: production paths run the
/// compiled ParallelExecutor (ParallelSim.h), and the simulator tests
/// and the differential fuzzer hold it to this class's outputs and
/// counters.
class Executor {
public:
  Executor(const Kernel &K, const SizeEnv &Sizes,
           const CacheConfig &Cache = CacheConfig());

  /// Binds the contents of an input buffer (floats are converted to the
  /// buffer's element kind).
  void bindInput(int BufferId, const std::vector<float> &Data);

  /// Runs the kernel body once.
  void run();

  /// Returns a buffer's contents as floats (ints converted).
  std::vector<float> bufferContents(int BufferId) const;

  const ExecCounters &counters() const { return Counters; }

private:
  struct BufferStorage {
    ir::ScalarKind Kind = ir::ScalarKind::Float;
    std::vector<float> F;
    std::vector<std::int32_t> I;
    std::int64_t VirtualBase = 0; ///< global address for the cache model
  };

  const Kernel &K;
  SizeEnv Env; ///< size vars + live loop vars
  CacheConfig Cache;
  std::vector<BufferStorage> Buffers;
  std::vector<ir::Scalar> Registers;
  ExecCounters Counters;

  // Set-associative cache state: Sets x Ways line tags (-1 = empty)
  // with LRU order (front = most recent).
  std::vector<std::int64_t> CacheTags;
  std::int64_t CacheSets = 0;

  void execStmts(const std::vector<StmtPtr> &Stmts);
  void execStmt(const Stmt &S);
  ir::Scalar evalExpr(const KExpr &E);
  std::int64_t evalIndex(const AExpr &A);
  void touchCache(const BufferStorage &B, std::int64_t ElemIndex);
  ir::Scalar loadFrom(int BufferId, std::int64_t Index);
  void storeTo(int BufferId, std::int64_t Index, ir::Scalar V);
};

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_SIM_H
