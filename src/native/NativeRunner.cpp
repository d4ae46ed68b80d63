//===- NativeRunner.cpp - Compile-and-run-natively --------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "native/NativeRunner.h"

#include "analysis/TileFold.h"
#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace lift;
using namespace lift::native;
using namespace lift::ocl;

namespace {

bool isExecutableFile(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode) &&
         ::access(Path.c_str(), X_OK) == 0;
}

/// Resolves \p Name against $PATH (absolute/relative paths are checked
/// directly). Returns the usable path or empty.
std::string resolveExecutable(const std::string &Name) {
  if (Name.empty())
    return "";
  if (Name.find('/') != std::string::npos)
    return isExecutableFile(Name) ? Name : "";
  const char *PathEnv = std::getenv("PATH");
  if (!PathEnv)
    return "";
  std::string Paths(PathEnv);
  std::size_t Pos = 0;
  while (Pos <= Paths.size()) {
    std::size_t Colon = Paths.find(':', Pos);
    if (Colon == std::string::npos)
      Colon = Paths.size();
    std::string Dir = Paths.substr(Pos, Colon - Pos);
    if (!Dir.empty()) {
      std::string Cand = Dir + "/" + Name;
      if (isExecutableFile(Cand))
        return Cand;
    }
    Pos = Colon + 1;
  }
  return "";
}

/// Removes one temp compilation directory and its known contents on
/// every exit path.
class TempDir {
public:
  explicit TempDir(bool Keep) : Keep(Keep) {
    const char *Base = std::getenv("TMPDIR");
    std::string Tmpl = (Base && *Base ? std::string(Base) : "/tmp");
    if (Tmpl.back() == '/')
      Tmpl.pop_back();
    Tmpl += "/liftc-native-XXXXXX";
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data()))
      throw NativeError("native backend: mkdtemp failed under " + Tmpl);
    Dir = Buf.data();
  }

  ~TempDir() {
    if (Keep || Dir.empty())
      return;
    for (const std::string &F : Files)
      ::unlink(F.c_str());
    ::rmdir(Dir.c_str());
  }

  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  /// Registers (and returns) a path inside the directory for cleanup.
  std::string file(const std::string &Name) {
    Files.push_back(Dir + "/" + Name);
    return Files.back();
  }

  const std::string &path() const { return Dir; }

private:
  std::string Dir;
  std::vector<std::string> Files;
  bool Keep;
};

void writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    throw NativeError("native backend: cannot write " + Path);
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
}

/// Shell-quotes one word (single quotes; rejects embedded quotes, which
/// never occur in sane compiler paths).
std::string shellQuote(const std::string &S) {
  if (S.find('\'') != std::string::npos)
    throw NativeError("native backend: refusing path containing a quote: " +
                      S);
  return "'" + S + "'";
}

/// Runs \p Command via popen, capturing combined stdout+stderr.
/// Returns the exit code (-1 when the shell could not run).
int runCommand(const std::string &Command, std::string &Output) {
  Output.clear();
  std::FILE *P = ::popen((Command + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = ::pclose(P);
  if (Status < 0)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// True when \p Compiler accepts -march=native. Probed once per
/// compiler per process by compiling an empty translation unit (about
/// 15 ms); compilers that reject the flag keep the baseline ISA.
bool acceptsHostIsa(const std::string &Compiler) {
  static std::mutex M;
  static std::unordered_map<std::string, bool> *Known =
      new std::unordered_map<std::string, bool>(); // leaked like the registries
  std::lock_guard<std::mutex> Lock(M);
  auto It = Known->find(Compiler);
  if (It != Known->end())
    return It->second;
  std::string Diag;
  bool Ok = runCommand(shellQuote(Compiler) +
                           " -march=native -x c -c -o /dev/null /dev/null",
                       Diag) == 0;
  Known->emplace(Compiler, Ok);
  return Ok;
}

/// The flags of one compile of \p O with \p Compiler (see
/// compileCommand).
std::string compileFlags(const std::string &Compiler, const NativeOptions &O,
                         bool WithOpenMP) {
  std::string Flags = "-O" + std::to_string(O.OptLevel);
  if (acceptsHostIsa(Compiler))
    Flags += " -march=native";
  Flags += " -fPIC -shared -ffp-contract=off";
  if (WithOpenMP)
    Flags += " -fopenmp";
  return Flags;
}

/// One compile attempt; returns the compiler exit code.
int invokeCompiler(const std::string &Compiler, const std::string &Src,
                   const std::string &Obj, const NativeOptions &O,
                   bool WithOpenMP, std::string &Diag) {
  return runCommand(shellQuote(Compiler) + " " +
                        compileFlags(Compiler, O, WithOpenMP) + " -o " +
                        shellQuote(Obj) + " " + shellQuote(Src) + " -lm",
                    Diag);
}

/// Loads the OpenMP runtime once per process and pins it. Kernels are
/// dlopen()ed RTLD_LOCAL and pull libgomp in as a dependency; without
/// a pin, dlclose() of the last kernel that uses it unmaps the runtime
/// while its thread pool is still parked inside it, and the pool
/// threads crash. RTLD_NODELETE keeps this one mapping (not every
/// kernel's) alive for the life of the process. A missing runtime is
/// not an error: the sequential retry in compileCSource needs none.
void pinOpenMPRuntime() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    ::dlopen("libgomp.so.1", RTLD_NOW | RTLD_GLOBAL | RTLD_NODELETE);
  });
}

/// Recovers the entry name from emitted source: the emitter may have
/// renamed the kernel on collision with a reserved word, so the
/// signature line is the source of truth.
std::string entryNameFromSource(const std::string &Source) {
  std::size_t At = Source.find("\nvoid ");
  std::size_t Paren =
      Source.find('(', At == std::string::npos ? 0 : At);
  if (At == std::string::npos || Paren == std::string::npos)
    fatalError("native backend: emitted source has no entry signature");
  return Source.substr(At + 6, Paren - (At + 6));
}

} // namespace

std::string lift::native::findCompiler(const NativeOptions &O) {
  std::vector<std::string> Candidates;
  if (!O.CompilerPath.empty()) {
    // An explicit path must work; no silent fallback past a typo.
    std::string R = resolveExecutable(O.CompilerPath);
    if (R.empty())
      throw CompilerNotFoundError(
          "native backend: compiler '" + O.CompilerPath +
          "' not found or not executable");
    return R;
  }
  if (const char *E = std::getenv("LIFT_NATIVE_CC"))
    Candidates.push_back(E);
  if (const char *E = std::getenv("CC"))
    Candidates.push_back(E);
  Candidates.push_back("cc");
  Candidates.push_back("gcc");
  Candidates.push_back("clang");
  for (const std::string &C : Candidates) {
    std::string R = resolveExecutable(C);
    if (!R.empty())
      return R;
  }
  throw CompilerNotFoundError(
      "native backend: no host C compiler found (tried $LIFT_NATIVE_CC, "
      "$CC, cc, gcc, clang); set LIFT_NATIVE_CC or install one");
}

std::string lift::native::compileCommand(const NativeOptions &O) {
  std::string Compiler = findCompiler(O);
  return Compiler + " " + compileFlags(Compiler, O, O.OpenMP);
}

NativeKernel::NativeKernel(void *Handle, void *Sym, bool Profiled,
                           std::string Source)
    : Handle(Handle), Sym(Sym), Profiled(Profiled),
      Source(std::move(Source)) {}

NativeKernel::~NativeKernel() {
  if (Handle)
    ::dlclose(Handle);
}

NativeKernel::EntryFn NativeKernel::entry() const {
  if (Profiled)
    fatalError("native backend: profiled kernel called through the "
               "unprofiled entry ABI");
  EntryFn F;
  static_assert(sizeof(F) == sizeof(Sym), "function pointer size");
  std::memcpy(&F, &Sym, sizeof(F));
  return F;
}

NativeKernel::ProfiledEntryFn NativeKernel::profiledEntry() const {
  if (!Profiled)
    fatalError("native backend: unprofiled kernel called through the "
               "profiled entry ABI");
  ProfiledEntryFn F;
  static_assert(sizeof(F) == sizeof(Sym), "function pointer size");
  std::memcpy(&F, &Sym, sizeof(F));
  return F;
}

NativeKernelPtr lift::native::compileCSource(const std::string &Source,
                                             const std::string &EntryName,
                                             const NativeOptions &O) {
  obs::Span CompSpan("native.compile", "native");
  CompSpan.arg("entry", EntryName);
  std::string Compiler = findCompiler(O);

  TempDir Tmp(O.KeepTemps);
  std::string Src = Tmp.file(EntryName + ".c");
  std::string Obj = Tmp.file(EntryName + ".so");
  writeFile(Src, Source);

  std::string Diag;
  int RC = invokeCompiler(Compiler, Src, Obj, O, O.OpenMP, Diag);
  if (RC != 0 && O.OpenMP) {
    // Some toolchains (clang without libomp) cannot link -fopenmp;
    // retry sequentially — the pragmas are then inert, which is still
    // correct, just single-threaded.
    std::string Diag2;
    if (invokeCompiler(Compiler, Src, Obj, O, /*WithOpenMP=*/false,
                       Diag2) == 0) {
      RC = 0;
      Diag.clear();
    }
  }
  if (RC != 0)
    throw CompileFailedError("native backend: '" + Compiler +
                                 "' failed (exit " + std::to_string(RC) +
                                 "):\n" + Diag,
                             Diag, Source);

  if (O.OpenMP)
    pinOpenMPRuntime();
  void *Handle = ::dlopen(Obj.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *E = ::dlerror();
    throw NativeError(std::string("native backend: dlopen failed: ") +
                      (E ? E : "unknown error"));
  }
  ::dlerror();
  void *Sym = ::dlsym(Handle, EntryName.c_str());
  if (!Sym) {
    // Copy the message first: dlclose() frees dlerror()'s buffer.
    const char *E = ::dlerror();
    std::string Why = E ? std::string(" (") + E + ")" : std::string();
    ::dlclose(Handle);
    throw SymbolNotFoundError("native backend: entry symbol '" + EntryName +
                              "' not found in compiled kernel" + Why);
  }
  obs::Registry::global().counter("native.compiles").inc();
  // The signature line tells the ABI apart: profile-mode sources take
  // the extra lift_prof accumulator parameter.
  bool Profiled = Source.find(", double *lift_prof)") != std::string::npos;
  // TempDir now removes source and object; the mapping stays valid.
  return std::make_shared<NativeKernel>(Handle, Sym, Profiled, Source);
}

ocl::Kernel lift::native::specializeForNative(const ocl::Kernel &K,
                                              analysis::SpecStats *Stats) {
  obs::Span S("native.specialize", "native");
  return analysis::specializeInterior(analysis::foldTiles(K, Stats), Stats);
}

namespace {

CEmitOptions emitOptions(const NativeOptions &O) {
  CEmitOptions EO;
  EO.OpenMP = O.EmitOpenMP;
  EO.Profile = O.Profile;
  return EO;
}

} // namespace

std::string lift::native::emitNativeC(const ocl::Kernel &K,
                                      const NativeOptions &O) {
  return emitC(specializeForNative(K), emitOptions(O));
}

NativeKernelPtr lift::native::compileKernel(const ocl::Kernel &K,
                                            const NativeOptions &O) {
  std::string Source = emitNativeC(K, O);
  return compileCSource(Source, entryNameFromSource(Source), O);
}

//===----------------------------------------------------------------------===//
// KernelCache
//===----------------------------------------------------------------------===//

struct KernelCache::Entry {
  std::mutex M;
  std::condition_variable CV;
  bool Ready = false;
  /// First level: compile command + emitted source, resolving
  /// lowered-hash collisions.
  std::string Key;
  NativeKernelPtr Kernel;
  std::string Error; ///< non-empty: cached compile failure

  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [this] { return Ready; });
  }

  void publish(NativeKernelPtr K, std::string Err) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Kernel = std::move(K);
      Error = std::move(Err);
      Ready = true;
    }
    CV.notify_all();
  }
};

KernelCache &KernelCache::global() {
  static KernelCache *C = new KernelCache(); // leaked like the registries
  return *C;
}

void KernelCache::compileSpecialized(const ocl::Kernel &K,
                                     const NativeOptions &O,
                                     const std::string &Command, Entry &Out) {
  std::string Source = emitNativeC(K, O);
  std::shared_ptr<Entry> E;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    std::shared_ptr<Entry> &Slot = BySource[Command + '\n' + Source];
    if (!Slot) {
      Slot = std::make_shared<Entry>();
      Owner = true;
    }
    E = Slot;
  }
  if (Owner) {
    NativeKernelPtr Kern;
    std::string Err;
    try {
      Kern = compileCSource(Source, entryNameFromSource(Source), O);
    } catch (const NativeError &Ex) {
      Err = Ex.what();
    }
    E->publish(std::move(Kern), std::move(Err));
  } else {
    obs::Registry::global().counter("native.cache.source_hits").inc();
    E->wait();
  }
  Out.publish(E->Kernel, E->Error);
}

NativeKernelPtr KernelCache::getOrCompile(std::uint64_t LoweredHash,
                                          const ocl::Kernel &K,
                                          const NativeOptions &O) {
  std::string Command = compileCommand(O);
  std::string Key = Command + '\n' + emitC(K, emitOptions(O));

  std::shared_ptr<Entry> E;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto Range = Map.equal_range(LoweredHash);
    for (auto It = Range.first; It != Range.second; ++It)
      if (It->second->Key == Key) {
        E = It->second;
        break;
      }
    if (E) {
      ++Hits;
    } else {
      ++Misses;
      Owner = true;
      E = std::make_shared<Entry>();
      E->Key = std::move(Key);
      Map.emplace(LoweredHash, E);
    }
  }
  obs::Registry::global()
      .counter(Owner ? "native.cache.misses" : "native.cache.hits")
      .inc();

  if (Owner)
    compileSpecialized(K, O, Command, *E);
  else
    E->wait();
  if (!E->Kernel)
    throw NativeError(E->Error.empty()
                          ? std::string("native backend: cached compile "
                                        "failure")
                          : E->Error);
  return E->Kernel;
}

std::uint64_t KernelCache::hits() const {
  std::lock_guard<std::mutex> Lock(M);
  return Hits;
}

std::uint64_t KernelCache::misses() const {
  std::lock_guard<std::mutex> Lock(M);
  return Misses;
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Map.clear();
  BySource.clear();
  Hits = Misses = 0;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void lift::native::probeToolchain(const NativeOptions &O) {
  NativeKernelPtr Probe = compileCSource(
      "void lift_probe(void **bufs, const long long *sizes, int threads) "
      "{ (void)bufs; (void)sizes; (void)threads; }\n",
      "lift_probe", O);
  void *Dummy[1] = {nullptr};
  long long Sz[1] = {0};
  Probe->entry()(Dummy, Sz, 1);
}

namespace {

/// Storage and arguments of one native execution, shared by the plain
/// and the profiled runner.
struct BoundRun {
  std::vector<std::vector<float>> FloatStore;
  std::vector<std::vector<std::int32_t>> IntStore;
  std::vector<void *> Ptrs;
  std::vector<long long> SizeVals;

  std::vector<float> takeOutput(const codegen::Compiled &C) {
    const BufferDecl &OutB = C.K.buffer(C.OutputBufferId);
    std::size_t OutIdx = std::size_t(OutB.Id);
    if (OutB.ElemKind == ir::ScalarKind::Float)
      return std::move(FloatStore[OutIdx]);
    std::vector<float> Out(IntStore[OutIdx].size());
    for (std::size_t I = 0; I != Out.size(); ++I)
      Out[I] = float(IntStore[OutIdx][I]);
    return Out;
  }
};

/// Allocates global buffers (zero-initialized exactly like the
/// simulator's fresh storage), binds inputs with the simulator
/// runner's conventions (Executor::bindInput) and resolves size
/// arguments.
BoundRun bindRun(const codegen::Compiled &C,
                 const std::vector<std::vector<float>> &Inputs,
                 const SizeEnv &Sizes) {
  if (Inputs.size() != C.InputBufferIds.size())
    fatalError("runNative: input count mismatch");
  const Kernel &K = C.K;
  checkLaunchExtents(K, Sizes);
  BoundRun R;
  R.FloatStore.resize(K.Buffers.size());
  R.IntStore.resize(K.Buffers.size());
  for (const BufferDecl &B : K.Buffers) {
    if (B.Space != MemSpace::Global)
      continue;
    std::int64_t N = B.NumElems->evaluate(Sizes);
    if (N < 0)
      fatalError("runNative: negative buffer extent for " + B.Name);
    std::size_t Idx = std::size_t(B.Id);
    if (B.ElemKind == ir::ScalarKind::Float) {
      R.FloatStore[Idx].assign(std::size_t(N), 0.0f);
      R.Ptrs.push_back(R.FloatStore[Idx].data());
    } else {
      R.IntStore[Idx].assign(std::size_t(N), 0);
      R.Ptrs.push_back(R.IntStore[Idx].data());
    }
  }

  for (std::size_t I = 0; I != Inputs.size(); ++I) {
    const BufferDecl &B = K.buffer(C.InputBufferIds[I]);
    std::size_t Idx = std::size_t(B.Id);
    if (B.ElemKind == ir::ScalarKind::Float) {
      if (Inputs[I].size() != R.FloatStore[Idx].size())
        fatalError("runNative: size mismatch for buffer " + B.Name +
                   " (got " + std::to_string(Inputs[I].size()) + ", want " +
                   std::to_string(R.FloatStore[Idx].size()) + ")");
      R.FloatStore[Idx] = Inputs[I];
    } else {
      if (Inputs[I].size() != R.IntStore[Idx].size())
        fatalError("runNative: size mismatch for int buffer " + B.Name);
      for (std::size_t J = 0; J != Inputs[I].size(); ++J)
        R.IntStore[Idx][J] = std::int32_t(Inputs[I][J]);
    }
  }

  for (const auto &SA : K.SizeArgs) {
    auto It = Sizes.find(SA.first);
    if (It == Sizes.end())
      fatalError("runNative: unbound size variable " + SA.second);
    R.SizeVals.push_back((long long)It->second);
  }
  // The entry dereferences lift_sizes[0] layout only up to SizeArgs
  // entries; keep the pointer valid even for zero size args.
  if (R.SizeVals.empty())
    R.SizeVals.push_back(0);
  return R;
}

/// Serializes timed sections process-wide so concurrent candidate
/// evaluations cannot contaminate each other's wall clock.
std::mutex &measureMutex() {
  static std::mutex M;
  return M;
}

} // namespace

NativeRunResult lift::native::runNative(
    const codegen::Compiled &C, const NativeKernel &Kern,
    const std::vector<std::vector<float>> &Inputs, const SizeEnv &Sizes,
    unsigned Threads, unsigned Warmup, unsigned Repeats) {
  if (Repeats == 0)
    Repeats = 1;
  if (Threads == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Threads = HW ? HW : 1;
  }

  obs::Span RunSpan("native.run", "native");
  RunSpan.arg("kernel", C.K.Name);
  RunSpan.arg("threads", std::int64_t(Threads));

  BoundRun Bound = bindRun(C, Inputs, Sizes);

  NativeRunResult R;
  {
    std::lock_guard<std::mutex> Lock(measureMutex());
    for (unsigned I = 0; I != Warmup; ++I)
      Kern.entry()(Bound.Ptrs.data(), Bound.SizeVals.data(), int(Threads));
    double Best = 0;
    for (unsigned I = 0; I != Repeats; ++I) {
      // Timed through the obs clock seam so tests can fake the clock.
      std::uint64_t T0 = obs::monotonicNowNs();
      Kern.entry()(Bound.Ptrs.data(), Bound.SizeVals.data(), int(Threads));
      double S = double(obs::monotonicNowNs() - T0) * 1e-9;
      if (I == 0 || S < Best)
        Best = S;
    }
    R.Seconds = Best;
  }
  obs::Registry::global().counter("native.runs").inc();

  R.Output = Bound.takeOutput(C);
  return R;
}

NativeProfiledResult lift::native::runNativeProfiled(
    const codegen::Compiled &C, const NativeKernel &Kern,
    const std::vector<std::vector<float>> &Inputs, const SizeEnv &Sizes,
    std::size_t NumRegions, unsigned Warmup, unsigned Repeats) {
  if (Repeats == 0)
    Repeats = 1;

  obs::Span RunSpan("native.run.profiled", "native");
  RunSpan.arg("kernel", C.K.Name);

  BoundRun Bound = bindRun(C, Inputs, Sizes);
  NativeKernel::ProfiledEntryFn Entry = Kern.profiledEntry();

  NativeProfiledResult Out;
  std::vector<double> Prof(NumRegions ? NumRegions : 1, 0.0);
  {
    std::lock_guard<std::mutex> Lock(measureMutex());
    for (unsigned I = 0; I != Warmup; ++I)
      Entry(Bound.Ptrs.data(), Bound.SizeVals.data(), 1, Prof.data());
    double Best = 0;
    for (unsigned I = 0; I != Repeats; ++I) {
      // The emitted timers accumulate; zero the slots per repeat so
      // the kept vector belongs to exactly one (the fastest) run.
      std::fill(Prof.begin(), Prof.end(), 0.0);
      std::uint64_t T0 = obs::monotonicNowNs();
      Entry(Bound.Ptrs.data(), Bound.SizeVals.data(), 1, Prof.data());
      double S = double(obs::monotonicNowNs() - T0) * 1e-9;
      if (I == 0 || S < Best) {
        Best = S;
        Out.RegionSeconds.assign(Prof.begin(), Prof.begin() + NumRegions);
      }
    }
    Out.R.Seconds = Best;
  }
  obs::Registry::global().counter("native.runs.profiled").inc();

  Out.R.Output = Bound.takeOutput(C);
  return Out;
}
