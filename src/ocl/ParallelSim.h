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
/// variables assigned fixed slots), flattens every symbolic index
/// expression into a postfix program evaluated on a reusable stack, and
/// reuses per-depth argument scratch buffers for user-function calls.
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
    std::vector<ir::Scalar> Registers;
    /// Per-shard copies of Local/Private buffers; Global entries stay
    /// empty and alias the shared storage.
    std::vector<BufferStorage> PrivBufs;
    ExecCounters Counters;
    bool CacheLive = false;
    std::vector<std::int64_t> Trace; ///< global-load lines (when !CacheLive)
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

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  std::int64_t evalProgram(int ProgId, ShardState &S);
  ir::Scalar evalExpr(int ExprId, ShardState &S, unsigned Depth);
  void execStmts(const std::vector<PStmt> &Stmts, ShardState &S);
  void execStmt(const PStmt &St, ShardState &S);
  ir::Scalar loadFrom(int BufferId, std::int64_t Index, ShardState &S);
  void storeTo(int BufferId, std::int64_t Index, ir::Scalar V, ShardState &S);
  BufferStorage &storageFor(int BufferId, ShardState &S);
  void touchLine(std::int64_t Line, ShardState &S);
  void runRegion(const TopStmt &Region);
  ShardState makeShard() const;

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
};

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_PARALLELSIM_H
