//===- ParallelSim.h - Compiled, multi-threaded NDRange simulator -*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A drop-in replacement for ocl::Executor that (a) compiles the kernel
/// AST to an execution plan before running it and (b) shards the
/// outermost parallel loop nest (Wrg/Glb) across a thread pool.
///
/// Why a compiled plan: the tree-walking Executor spends most of its
/// time in std::unordered_map environment lookups and per-call argument
/// vector allocation. The plan replaces the environment with a dense
/// slot array (size variables constant-folded at compile time, loop
/// variables assigned fixed slots), compiles every symbolic index
/// expression into index programs (constant, affine over slots and
/// sub-programs, or one binary operation), and reuses per-depth
/// argument scratch buffers for user-function calls.
///
/// Why sharding is exact: iterations of Wrg/Glb loops are independent
/// work-groups/work-items by construction of the Lift code generator
/// (they write disjoint global elements and only use registers/local
/// memory they first wrote themselves). Each shard executes a
/// contiguous chunk of the flattened iteration space with its own
/// counters, register file, local/private buffers and *global-load
/// trace*; after the region:
///  * counters merge by summation (order-independent),
///  * the per-chunk global-load line traces are replayed through the
///    single set-associative LRU cache model in ascending chunk order —
///    concatenated chunk traces equal the sequential access stream
///    exactly, so GlobalLoadLineMisses (and every other counter) is
///    bit-identical to ocl::Executor for any thread count,
///  * the last chunk's registers and local/private buffers are adopted
///    (sequential last-iteration-wins semantics).
///
/// Two caches make one simulated access cheap; both are exact.
///
/// Loop-invariant index programs. Programs are interned per ArithExpr
/// node, so a sub-term shared by many accesses (a tile offset
/// min(d - 16, 16 * i0), a clamped row term) is one program. Each
/// program that reads loop slots gets a *key slot* at plan-compile
/// time: the deepest of the slots it transitively reads, provided every
/// slot it reads is bound by exactly one loop (or region level) and
/// the others all enclose the key's loop. Each shard keeps a generation
/// stamp per slot, bumped by every write of the slot (including the
/// unbind at loop exit), and a value + stamp per program; a program
/// whose cached stamp equals its key slot's stamp returns the cached
/// value. That is exact because an outer slot changes only when
/// control leaves the key's loop (which unbinds, so re-stamps, the key)
/// or, in a flattened region, when an outer level moves, and a region
/// re-stamps the first changed level and every deeper one, so an
/// extent-1 inner level whose value never changes is re-stamped too.
/// Programs that read a slot no single loop binds are never cached, so
/// the "unbound variable" fatal still fires. Each Affine program is
/// also reassociated into a shared, cached sum of its loop-invariant
/// terms plus the terms that read its key slot.
///
/// Repeat cache-line hits. A shard records a global-load line in its
/// trace only when it differs from the last line the shard recorded
/// for the same cache set. At replay that line was the set's last
/// access, so it is the set's most recently used way, and nothing else
/// maps to the set in between; a repeat is a hit that moves nothing in
/// the LRU state, so dropping it leaves GlobalLoadLineMisses exact.
///
/// Measured on a 4-vCPU Xeon KVM guest (Release, liftSpace() modeled
/// sweeps of all 14 benchmarks at their small targets, two alternating
/// runs each): 9.2 / 8.9 s -> 4.8 / 4.6 s at jobs 1 and 2.56 / 2.49 s
/// -> 1.40 / 1.48 s at jobs 4, every candidate's predicted time
/// bit-identical. Evaluations, reuses and filtered lines are reported
/// as the sim.index.* / sim.trace.* metrics (see stats()).
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_PARALLELSIM_H
#define LIFT_OCL_PARALLELSIM_H

#include "ocl/Sim.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace lift {

class ThreadPool;

namespace ocl {

/// Executes kernels functionally while counting events, like
/// ocl::Executor, but from a compiled plan and with the outermost
/// parallel loop nest sharded over \p Jobs pool workers (0 = all
/// hardware workers, 1 = single-threaded but still compiled).
class ParallelExecutor {
public:
  ParallelExecutor(const Kernel &K, const SizeEnv &Sizes,
                   const CacheConfig &Cache = CacheConfig(),
                   unsigned Jobs = 0);

  /// Binds the contents of an input buffer (floats are converted to the
  /// buffer's element kind).
  void bindInput(int BufferId, const std::vector<float> &Data);

  /// Runs the kernel body once.
  void run();

  /// Returns a buffer's contents as floats (ints converted).
  std::vector<float> bufferContents(int BufferId) const;

  const ExecCounters &counters() const { return Main.Counters; }

  /// How often the two caches worked, summed over every shard of every
  /// run() (not part of ExecCounters: the reference Executor has no
  /// such caches, and counters are compared field-for-field with it).
  struct CacheStats {
    std::uint64_t IndexEvals = 0;    ///< index programs computed
    std::uint64_t IndexReused = 0;   ///< served from the program cache
    std::uint64_t TraceLines = 0;    ///< global-load lines traced
    std::uint64_t TraceFiltered = 0; ///< repeat lines not traced
  };
  const CacheStats &stats() const { return Stats; }

private:
  //===--------------------------------------------------------------------===//
  // Compiled plan representation
  //===--------------------------------------------------------------------===//

  /// A compiled index expression, stored in the Progs arena. Size
  /// variables are folded to constants at compile time, so a program is
  /// one of:
  ///  * Const — fully folded;
  ///  * Affine — Base + sum(Coeff * slot) + sum(Coeff * sub-program),
  ///    the dominant form: flat row-major indices are affine in the
  ///    loop variables with clamp() sub-terms for boundary handling;
  ///  * Binary — floor div/mod, min, max (or a product of two symbolic
  ///    factors) over two sub-programs.
  struct IndexProgram {
    enum class Form : std::uint8_t { Const, Affine, Binary };
    enum class BinOp : std::uint8_t { Div, Mod, Min, Max, Mul };
    Form F = Form::Const;
    bool IsConst = false; ///< F == Const (kept for terse call sites)
    /// The slot whose stamp keys the cached value, or -1 when the
    /// program is constant or never cached (see the file comment).
    int Key = -1;
    std::int64_t ConstVal = 0;
    std::int64_t Base = 0;                               ///< Affine
    std::vector<std::pair<std::int64_t, int>> SlotTerms; ///< (coeff, slot)
    std::vector<std::pair<std::int64_t, int>> SubTerms;  ///< (coeff, prog)
    BinOp Op = BinOp::Div; ///< Binary
    int A = -1, B = -1;    ///< Binary operand programs
  };

  /// Compiled KExpr node (indices into the Exprs arena).
  struct PExpr {
    KExpr::Kind Kind = KExpr::Kind::ConstScalar;
    ir::Scalar Const;
    int Prog = -1; ///< IndexVal / Load index program
    int VarId = -1;
    int BufferId = -1;
    const ir::UserFun *UF = nullptr;
    std::uint64_t FlopCost = 0;
    std::vector<int> Args;
    struct PCheck {
      int Idx, Lo, Hi;
    };
    std::vector<PCheck> Checks;
    int Then = -1, Else = -1;
  };

  /// Compiled statement tree.
  struct PStmt {
    Stmt::Kind Kind = Stmt::Kind::Store;
    int BufferId = -1;
    int Prog = -1; ///< Store index program
    int VarId = -1;
    int Value = -1; ///< PExpr id
    // Loop
    int Slot = -1;
    int CountProg = -1;
    bool Unroll = false;
    std::vector<PStmt> Body; ///< Loop body
  };

  /// One flattened level of a parallel (Wrg/Glb) loop nest.
  struct RegionLevel {
    int Slot = -1;
    std::int64_t Extent = 0;
    bool Unroll = false;
  };

  /// A top-level statement: either a parallel region (flattened Wrg/Glb
  /// nest with a sequential inner body) or an ordinary statement.
  struct TopStmt {
    bool IsRegion = false;
    PStmt S;                         ///< when !IsRegion
    std::vector<RegionLevel> Levels; ///< when IsRegion
    std::vector<PStmt> Inner;        ///< region inner body
  };

  //===--------------------------------------------------------------------===//
  // Runtime state
  //===--------------------------------------------------------------------===//

  struct BufferStorage {
    ir::ScalarKind Kind = ir::ScalarKind::Float;
    MemSpace Space = MemSpace::Global;
    std::vector<float> F;
    std::vector<std::int32_t> I;
    std::int64_t VirtualBase = 0;
  };

  /// Execution state of one shard (or of the sequential main thread,
  /// with CacheLive = true).
  struct ShardState {
    std::vector<std::int64_t> Slots;
    /// Generation stamp of each slot: a fresh Clock value on every
    /// write. A program's cached value is current while its stamp
    /// equals its key slot's.
    std::vector<std::uint64_t> SlotStamps;
    struct CachedValue {
      std::uint64_t Stamp = 0; ///< 0: never computed (stamps start at 1)
      std::int64_t Value = 0;
    };
    std::vector<CachedValue> ProgCache; ///< per program
    std::uint64_t Clock = 1;
    std::vector<ir::Scalar> Registers;
    /// Per-shard copies of Local/Private buffers; Global entries stay
    /// empty and alias the shared storage.
    std::vector<BufferStorage> PrivBufs;
    ExecCounters Counters;
    bool CacheLive = false;
    std::vector<std::int64_t> Trace; ///< global-load lines (when !CacheLive)
    /// Last line traced per cache set (-1: none), for the repeat filter.
    std::vector<std::int64_t> LastLine;
    std::uint64_t IndexEvals = 0, IndexReused = 0, TraceFiltered = 0;
    std::vector<std::vector<ir::Scalar>> ArgScratch; ///< per UF call depth
  };

  //===--------------------------------------------------------------------===//
  // Plan compilation
  //===--------------------------------------------------------------------===//

  int slotFor(unsigned VarId);
  int compileIndex(const AExpr &E);
  int compileBinary(IndexProgram::BinOp Op, const AExpr &A, const AExpr &B);
  void toAffine(const AExpr &E, std::int64_t Scale, std::int64_t &Base,
                std::unordered_map<int, std::int64_t> &Coeffs,
                std::vector<std::pair<std::int64_t, int>> &SubTerms);
  int compileExpr(const KExpr &E);
  PStmt compileStmt(const Stmt &S);
  void compileTopLevel(const std::vector<StmtPtr> &Stmts);
  void assignKeySlots();

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  std::int64_t evalProgram(int ProgId, ShardState &S);
  std::int64_t computeProgram(const IndexProgram &P, ShardState &S);
  void bindSlot(int Slot, std::int64_t Value, ShardState &S) const;
  ir::Scalar evalExpr(int ExprId, ShardState &S, unsigned Depth);
  void execStmts(const std::vector<PStmt> &Stmts, ShardState &S);
  void execStmt(const PStmt &St, ShardState &S);
  ir::Scalar loadFrom(int BufferId, std::int64_t Index, ShardState &S);
  void storeTo(int BufferId, std::int64_t Index, ir::Scalar V, ShardState &S);
  BufferStorage &storageFor(int BufferId, ShardState &S);
  void touchLine(std::int64_t Line, ShardState &S);
  void runRegion(const TopStmt &Region);
  ShardState makeShard() const;
  void resetCaches(ShardState &S) const;
  void addStats(const ShardState &S);

  const Kernel &K;
  CacheConfig Cache;
  unsigned Jobs;

  // Plan.
  std::vector<IndexProgram> Progs;
  std::unordered_map<const ArithExpr *, int> ProgIds;
  std::unordered_map<unsigned, std::int64_t> SizeConsts;
  std::unordered_map<unsigned, int> SlotIds;
  std::vector<std::string> SlotNames; ///< for unbound-variable errors
  std::vector<PExpr> Exprs;
  std::vector<TopStmt> TopLevel;

  // Shared runtime state. Main is the sequential state (CacheLive);
  // shard counters and traces merge into it after each region, so
  // Main.Counters is the final merged result.
  std::vector<BufferStorage> Buffers; ///< Global storage (+ layout info)
  ShardState Main;

  // Set-associative cache state (same layout as ocl::Executor).
  std::vector<std::int64_t> CacheTags;
  std::int64_t CacheSets = 0;

  CacheStats Stats;
};

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_PARALLELSIM_H
