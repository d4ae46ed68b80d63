//===- NativeRunner.h - Compile-and-run-natively ---------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution backend: takes a compiled kernel AST, splits
/// its innermost grid loops into edge loops and a clamp-free,
/// vectorizable interior and versions its tile fills
/// (specializeForNative), emits C (native/CEmitter.h), invokes the host
/// C compiler on it for the host ISA in a private temp directory,
/// dlopen()s the resulting shared object and runs the
/// entry point with the same buffer/size conventions as the simulator
/// runner (codegen/Runner.h). This is the "real hardware" leg the
/// paper measured on GPUs, reproduced on the host CPU: the simulator
/// stays the bit-exact correctness oracle while wall-clock time comes
/// from actual execution.
///
/// Everything that can fail for environmental reasons (no compiler,
/// compile error, missing symbol) throws a subclass of
/// lift::RecoverableError carrying the compiler diagnostics, so
/// drivers can degrade gracefully; invariant violations (mismatched
/// buffer counts, unbound sizes) stay fatal like everywhere else.
///
/// Temp hygiene: each compilation gets a fresh mkdtemp directory under
/// $TMPDIR (default /tmp) which is removed on *every* path — success,
/// compile failure, dlopen/dlsym failure. The shared object is
/// unlinked while still mapped (safe on POSIX), so a crash cannot
/// leave binaries behind either.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_NATIVE_NATIVERUNNER_H
#define LIFT_NATIVE_NATIVERUNNER_H

#include "analysis/InteriorSpec.h"
#include "codegen/CodeGen.h"
#include "native/CEmitter.h"
#include "ocl/Sim.h"
#include "support/Support.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {
namespace native {

//===----------------------------------------------------------------------===//
// Errors and options
//===----------------------------------------------------------------------===//

/// Base of every recoverable native-backend failure.
class NativeError : public RecoverableError {
public:
  using RecoverableError::RecoverableError;
};

/// No usable host C compiler was found.
class CompilerNotFoundError : public NativeError {
public:
  using NativeError::NativeError;
};

/// The host compiler rejected the emitted source (or died). what()
/// includes the diagnostics; Source carries the full emitted C for
/// artifacts.
class CompileFailedError : public NativeError {
public:
  CompileFailedError(const std::string &Msg, std::string Diagnostics,
                     std::string Source)
      : NativeError(Msg), Diagnostics(std::move(Diagnostics)),
        Source(std::move(Source)) {}
  std::string Diagnostics;
  std::string Source;
};

/// dlopen succeeded but the entry symbol is missing.
class SymbolNotFoundError : public NativeError {
public:
  using NativeError::NativeError;
};

struct NativeOptions {
  /// Compiler executable. Empty selects the first usable of
  /// $LIFT_NATIVE_CC, $CC, cc, gcc, clang.
  std::string CompilerPath;
  /// Compile with -fopenmp so the emitter's pragmas take effect. If
  /// that compilation fails (e.g. clang without libomp) the runner
  /// retries once without it — the pragmas are then ignored and the
  /// kernel runs sequentially, which is always correct.
  bool OpenMP = true;
  int OptLevel = 2;
  /// Leave the temp directory (source + object) behind for debugging.
  bool KeepTemps = false;
  /// Disable `#pragma omp` emission entirely (sequential source).
  bool EmitOpenMP = true;
  /// Emit with CEmitOptions::Profile: region timers, the extended
  /// `double *lift_prof` ABI, sequential execution. Profiled and
  /// unprofiled compilations of the same lowering coexist in the
  /// kernel cache (the emitted source differs, which is part of the
  /// cache key).
  bool Profile = false;
};

/// Resolves the compiler per NativeOptions::CompilerPath; throws
/// CompilerNotFoundError when nothing usable exists.
std::string findCompiler(const NativeOptions &O = {});

/// The resolved compiler and the flags compileCSource passes it for
/// \p O, e.g. "/usr/bin/cc -O2 -march=native -fPIC -shared
/// -ffp-contract=off -fopenmp". Every kernel is compiled for the host
/// ISA when the compiler accepts -march=native (probed once per
/// compiler); -ffp-contract=off keeps results bit-identical with the
/// simulator (no FMA contraction, and without -ffast-math no vector
/// math library). Part of the kernel-cache key and of bench
/// provenance. Throws CompilerNotFoundError like findCompiler.
std::string compileCommand(const NativeOptions &O = {});

/// Compiles and loads a trivial translation unit, verifying the whole
/// toolchain path (compiler, shared objects, dlopen) works. Throws a
/// NativeError subclass describing the first broken step.
void probeToolchain(const NativeOptions &O = {});

//===----------------------------------------------------------------------===//
// Loaded kernels
//===----------------------------------------------------------------------===//

/// A dlopen()ed native kernel. Owns the library handle; the mapping
/// (and the entry pointer) stays valid for the object's lifetime even
/// though the backing file is already unlinked.
class NativeKernel {
public:
  /// The positional ABI emitted by CEmitter.
  using EntryFn = void (*)(void **Bufs, const long long *Sizes,
                           int Threads);
  /// The extended profile-mode ABI (CEmitOptions::Profile): \p Prof
  /// points at one double per profile region, accumulated into.
  using ProfiledEntryFn = void (*)(void **Bufs, const long long *Sizes,
                                   int Threads, double *Prof);

  NativeKernel(void *Handle, void *Sym, bool Profiled, std::string Source);
  ~NativeKernel();
  NativeKernel(const NativeKernel &) = delete;
  NativeKernel &operator=(const NativeKernel &) = delete;

  /// True when the kernel was emitted in profile mode and must be
  /// called through profiledEntry().
  bool profiled() const { return Profiled; }
  EntryFn entry() const;
  ProfiledEntryFn profiledEntry() const;
  /// The emitted C source (kept for mismatch artifacts / debugging).
  const std::string &source() const { return Source; }

private:
  void *Handle = nullptr;
  void *Sym = nullptr;
  bool Profiled = false;
  std::string Source;
};

using NativeKernelPtr = std::shared_ptr<const NativeKernel>;

/// Compiles \p Source (a complete C translation unit) into a shared
/// object and resolves \p EntryName. Building block of compileKernel
/// and directly testable for the error paths.
NativeKernelPtr compileCSource(const std::string &Source,
                               const std::string &EntryName,
                               const NativeOptions &O = {});

/// The kernel AST the native backend compiles for \p K: every tiled
/// nest folded back into the grid nest it tiles, tile fills forwarded
/// and local memory gone (analysis/TileFold.h), then the innermost grid
/// loop of every eligible loop nest split into edge loops and a
/// clamp-free, vectorizable interior (analysis/InteriorSpec.h).
/// Idempotent.
ocl::Kernel specializeForNative(const ocl::Kernel &K,
                                analysis::SpecStats *Stats = nullptr);

/// The C source the native backend compiles for \p K:
/// emitC(specializeForNative(K)) under \p O's emission options.
std::string emitNativeC(const ocl::Kernel &K, const NativeOptions &O = {});

/// Compiles emitNativeC(\p K, \p O), uncached. The entry name is the
/// kernel name (sanitized by the emitter).
NativeKernelPtr compileKernel(const ocl::Kernel &K,
                              const NativeOptions &O = {});

//===----------------------------------------------------------------------===//
// Compiled-kernel cache
//===----------------------------------------------------------------------===//

/// Process-wide cache of compiled kernels, in two levels.
///
/// Both levels key on the compile command (compileCommand: compiler,
/// optimization level, ISA flag, OpenMP), so a request with other
/// compile options never gets a binary built with different flags.
///
/// The first level is keyed on the *lowered* program's structural hash
/// (ir/StructuralHash.h) plus the emitted source of the kernel as
/// given. Alpha-equivalent lowerings have identical positional ABIs
/// (buffer and size-arg order is structural), so a cached binary is
/// safe to share across candidates — the property the tuner exploits
/// to compile each distinct lowering once per sweep. Hash collisions
/// are resolved by comparing the emitted source, so a collision costs a
/// second compile, never a wrong binary. A hit returns at once: it
/// never re-runs specialization.
///
/// On a first-level miss the kernel is specialized (emitNativeC) and
/// looked up in the second level, keyed on that final C source (and
/// the compile command). Kernels
/// that specialize to identical source — a kernel and its already
/// specialized form, say — therefore compile once.
///
/// Thread-safe with in-flight deduplication at both levels (first
/// caller compiles, concurrent callers wait). Compile failures are
/// cached and rethrown so a broken toolchain fails fast instead of
/// re-invoking cc per candidate. First-level hit/miss totals feed the
/// "native.cache.*" metrics; second-level hits count as
/// "native.cache.source_hits".
class KernelCache {
public:
  static KernelCache &global();

  /// Returns the cached kernel for (\p LoweredHash, compile command of
  /// \p O, emitted source of \p K), compiling emitNativeC(\p K, \p O)
  /// on first use. Throws NativeError on (possibly cached) compile
  /// failure, CompilerNotFoundError uncached.
  NativeKernelPtr getOrCompile(std::uint64_t LoweredHash,
                               const ocl::Kernel &K,
                               const NativeOptions &O = {});

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Empties both levels (the next request of any kernel compiles).
  void clear();

private:
  struct Entry;
  /// First-level miss: specializes \p K, resolves the second level and
  /// publishes its kernel (or error) into \p Out.
  void compileSpecialized(const ocl::Kernel &K, const NativeOptions &O,
                          const std::string &Command, Entry &Out);

  mutable std::mutex M;
  std::unordered_multimap<std::uint64_t, std::shared_ptr<Entry>> Map;
  std::unordered_map<std::string, std::shared_ptr<Entry>> BySource;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
};

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// One native execution's results: the output buffer and the best
/// (minimum over repeats) wall-clock time of a single kernel call.
struct NativeRunResult {
  std::vector<float> Output;
  double Seconds = 0;
};

/// Runs a loaded kernel with the simulator runner's conventions: one
/// flat float vector per program input (ints converted like
/// Executor::bindInput), sizes bound by ArithExpr variable id, output
/// returned as floats. \p Threads is the OpenMP thread count (0 = all
/// hardware threads). Executes \p Warmup + \p Repeats times on the
/// same buffers and reports the fastest repeat; timed sections are
/// serialized process-wide so concurrent measurements cannot
/// contaminate each other. Throws RecoverableError when \p Sizes are
/// below one of the kernel's MinExtents (ocl::checkLaunchExtents).
NativeRunResult runNative(const codegen::Compiled &C,
                          const NativeKernel &Kern,
                          const std::vector<std::vector<float>> &Inputs,
                          const ocl::SizeEnv &Sizes, unsigned Threads = 1,
                          unsigned Warmup = 0, unsigned Repeats = 1);

/// runNative for a profile-mode kernel: additionally returns the
/// per-region accumulated seconds (profileRegions() order) of the
/// fastest repeat. \p NumRegions must equal profileRegions().size()
/// for the kernel — the emitted code writes exactly that many slots.
/// Profiled kernels execute sequentially by construction.
struct NativeProfiledResult {
  NativeRunResult R;
  std::vector<double> RegionSeconds;
};
NativeProfiledResult
runNativeProfiled(const codegen::Compiled &C, const NativeKernel &Kern,
                  const std::vector<std::vector<float>> &Inputs,
                  const ocl::SizeEnv &Sizes, std::size_t NumRegions,
                  unsigned Warmup = 0, unsigned Repeats = 1);

} // namespace native
} // namespace lift

#endif // LIFT_NATIVE_NATIVERUNNER_H
