//===- KernelAst.h - Imperative kernel AST ---------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The imperative kernel AST produced by the code generator. It plays
/// the role of Lift's OpenCL AST: one Kernel is (a) pretty-printed to
/// OpenCL C source by the Emitter and (b) executed by the NDRange
/// simulator. Index arithmetic is carried as symbolic ArithExprs over
/// loop variables and size parameters, which the simulator evaluates
/// per iteration and the coalescing analysis differentiates per lane.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OCL_KERNELAST_H
#define LIFT_OCL_KERNELAST_H

#include "arith/ArithExpr.h"
#include "ir/UserFun.h"

#include <memory>
#include <string>
#include <vector>

namespace lift {
namespace ocl {

/// OpenCL memory spaces for buffers.
enum class MemSpace { Global, Local, Private };

const char *memSpaceName(MemSpace S);

/// A linear buffer of scalars, identified by index into
/// Kernel::Buffers.
struct BufferDecl {
  int Id = -1;
  std::string Name;
  ir::ScalarKind ElemKind = ir::ScalarKind::Float;
  MemSpace Space = MemSpace::Global;
  AExpr NumElems;        ///< symbolic element count
  bool IsInput = false;  ///< bound to a program input
  bool IsOutput = false; ///< the kernel result
};

/// A scalar register (OpenCL: a private variable), identified by index
/// into Kernel::Registers.
struct RegisterDecl {
  int Id = -1;
  std::string Name;
  ir::ScalarKind Kind = ir::ScalarKind::Float;
};

class KExpr;
using KExprPtr = std::shared_ptr<const KExpr>;

/// A conjunction of half-open bounds checks Lo <= Idx < Hi, used by
/// Select for constant-padding (out-of-bounds lanes read the constant
/// instead of memory).
struct BoundsCheck {
  AExpr Idx;
  AExpr Lo;
  AExpr Hi;
};

/// A scalar kernel expression.
class KExpr {
public:
  enum class Kind {
    ConstScalar, ///< literal float/int
    IndexVal,    ///< value of an index expression as an int scalar
    ReadVar,     ///< read a register
    Load,        ///< buf[idx]
    CallUF,      ///< user function application
    Select,      ///< bounds-checked choice (constant pad)
  };

  Kind K = Kind::ConstScalar;
  ir::Scalar Const;                ///< ConstScalar
  AExpr Index;                     ///< IndexVal / Load index
  int VarId = -1;                  ///< ReadVar
  int BufferId = -1;               ///< Load
  ir::UserFunPtr UF;               ///< CallUF
  std::vector<KExprPtr> Args;      ///< CallUF arguments
  std::vector<BoundsCheck> Checks; ///< Select condition (conjunction)
  KExprPtr Then, Else;             ///< Select branches
};

KExprPtr kConst(ir::Scalar V);
KExprPtr kIndexVal(AExpr E);
KExprPtr kReadVar(int VarId);
KExprPtr kLoad(int BufferId, AExpr Index);
KExprPtr kCallUF(ir::UserFunPtr UF, std::vector<KExprPtr> Args);
KExprPtr kSelect(std::vector<BoundsCheck> Checks, KExprPtr Then,
                 KExprPtr Else);

class Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

/// How a loop's iteration space maps onto the NDRange.
enum class LoopKind {
  Seq, ///< plain sequential loop inside one work-item
  Glb, ///< iterations distributed over global work-item ids (dim Dim)
  Wrg, ///< iterations distributed over work-group ids (dim Dim)
  Lcl, ///< iterations distributed over local work-item ids (dim Dim)
};

const char *loopKindName(LoopKind K);

/// A kernel statement.
class Stmt {
public:
  enum class Kind {
    Store,     ///< buf[idx] = value
    AssignVar, ///< reg = value
    Loop,      ///< for-loop (sequential or NDRange-mapped)
    Barrier,   ///< work-group barrier
  };

  Kind K = Kind::Store;

  // Store / AssignVar
  int BufferId = -1;
  AExpr Index;
  int VarId = -1;
  KExprPtr Value;

  // Loop
  LoopKind LK = LoopKind::Seq;
  int Dim = 0;            ///< NDRange dimension for Glb/Wrg/Lcl
  AExpr LoopVar;          ///< the ArithExpr Var bound per iteration
  AExpr Count;            ///< iteration count (loop runs 0..Count-1)
  bool Unroll = false;    ///< unrolled by the emitter (reduceSeqUnroll)
  /// Independent lanes found by analysis/InteriorSpec.h (the clamp-free
  /// interior of a split grid loop): the C emitter may mark it
  /// `#pragma omp simd`.
  bool Simd = false;
  std::vector<StmtPtr> Body; ///< Loop body
};

StmtPtr sStore(int BufferId, AExpr Index, KExprPtr Value);
StmtPtr sAssign(int VarId, KExprPtr Value);
StmtPtr sLoop(LoopKind LK, int Dim, AExpr LoopVar, AExpr Count,
              std::vector<StmtPtr> Body, bool Unroll = false,
              bool Simd = false);
StmtPtr sBarrier();

/// A launch precondition: the size expression Extent must be at least
/// Min. The code generator records one per clamped slide/join over a
/// symbolic extent (a clamped tiling's last tile starts at n - tile, so
/// an axis shorter than one tile would index before the buffer).
struct MinExtent {
  AExpr Extent;
  std::int64_t Min = 0;
};

/// A complete kernel: declarations plus a statement list. The NDRange
/// shape is implicit in the loop structure (Glb/Wrg/Lcl loop counts);
/// the launch configuration (work-group sizes) is supplied separately
/// at execution time and only affects the device timing model.
struct Kernel {
  std::string Name = "kernel_fn";
  std::vector<BufferDecl> Buffers;
  std::vector<RegisterDecl> Registers;
  std::vector<StmtPtr> Body;
  /// Size variables (ArithExpr var ids and names) that must be bound at
  /// launch; emitted as int kernel arguments.
  std::vector<std::pair<unsigned, std::string>> SizeArgs;
  /// User functions referenced by the body (for emission).
  std::vector<ir::UserFunPtr> UserFuns;
  /// Launch preconditions (checkLaunchExtents in ocl/Sim.h).
  std::vector<MinExtent> MinExtents;

  int outputBufferId() const;
  const BufferDecl &buffer(int Id) const { return Buffers[std::size_t(Id)]; }

  /// Registers a user function (dedup by pointer identity).
  void noteUserFun(const ir::UserFunPtr &UF);
};

} // namespace ocl
} // namespace lift

#endif // LIFT_OCL_KERNELAST_H
