//===- Sim.cpp - Instrumented NDRange simulator -----------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ocl/Sim.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Support.h"

#include <algorithm>
#include <cassert>

using namespace lift;
using namespace lift::ir;
using namespace lift::ocl;

//===----------------------------------------------------------------------===//
// NDRange analysis
//===----------------------------------------------------------------------===//

std::int64_t NDRangeInfo::totalWorkItems() const {
  if (UsesWorkGroups)
    return totalWorkGroups() * LocalSize[0] * LocalSize[1] * LocalSize[2];
  return GlobalSize[0] * GlobalSize[1] * GlobalSize[2];
}

std::int64_t NDRangeInfo::totalWorkGroups() const {
  return NumGroups[0] * NumGroups[1] * NumGroups[2];
}

static void analyzeLoops(const std::vector<StmtPtr> &Stmts,
                         const SizeEnv &Sizes, NDRangeInfo &Info) {
  for (const StmtPtr &S : Stmts) {
    if (S->K != Stmt::Kind::Loop)
      continue;
    std::int64_t Extent = S->Count->evaluate(Sizes);
    switch (S->LK) {
    case LoopKind::Glb:
      Info.GlobalSize[S->Dim] = std::max(Info.GlobalSize[S->Dim], Extent);
      break;
    case LoopKind::Wrg:
      Info.UsesWorkGroups = true;
      Info.NumGroups[S->Dim] = std::max(Info.NumGroups[S->Dim], Extent);
      break;
    case LoopKind::Lcl:
      Info.UsesWorkGroups = true;
      Info.LocalSize[S->Dim] = std::max(Info.LocalSize[S->Dim], Extent);
      break;
    case LoopKind::Seq:
      break;
    }
    // Parallel loop extents may be symbolic in outer loop variables;
    // analysis only runs on sizes, so bind missing loop vars to zero
    // would be wrong — instead, inner structures get analyzed with the
    // same Sizes and rely on counts independent of outer indices (true
    // for Lift-generated code).
    analyzeLoops(S->Body, Sizes, Info);
  }
}

NDRangeInfo lift::ocl::analyzeNDRange(const Kernel &K, const SizeEnv &Sizes) {
  NDRangeInfo Info;
  analyzeLoops(K.Body, Sizes, Info);
  for (const BufferDecl &B : K.Buffers)
    if (B.Space == MemSpace::Local)
      Info.LocalMemBytes += B.NumElems->evaluate(Sizes) * 4;
  return Info;
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

Executor::Executor(const Kernel &K, const SizeEnv &Sizes,
                   const CacheConfig &Cache)
    : K(K), Env(Sizes), Cache(Cache) {
  Buffers.resize(K.Buffers.size());
  std::int64_t NextBase = 0;
  for (const BufferDecl &Decl : K.Buffers) {
    BufferStorage &B = Buffers[std::size_t(Decl.Id)];
    B.Kind = Decl.ElemKind;
    std::int64_t N = Decl.NumElems->evaluate(Sizes);
    if (N < 0)
      fatalError("negative buffer size for " + Decl.Name);
    if (Decl.ElemKind == ScalarKind::Float)
      B.F.assign(std::size_t(N), 0.0f);
    else
      B.I.assign(std::size_t(N), 0);
    // Buffers get disjoint line-aligned virtual address ranges so the
    // cache model never aliases them.
    B.VirtualBase = NextBase;
    std::int64_t Bytes = N * 4;
    NextBase += (Bytes + Cache.LineBytes - 1) / Cache.LineBytes *
                    Cache.LineBytes +
                Cache.LineBytes;
  }
  Registers.resize(K.Registers.size());
  for (const RegisterDecl &R : K.Registers)
    Registers[std::size_t(R.Id)] =
        R.Kind == ScalarKind::Float ? Scalar(0.0f) : Scalar(std::int32_t(0));

  CacheSets = std::max<std::int64_t>(
      1, Cache.TotalBytes / (Cache.LineBytes * Cache.Ways));
  CacheTags.assign(std::size_t(CacheSets * Cache.Ways), -1);
}

void lift::ocl::checkLaunchExtents(const Kernel &K, const SizeEnv &Sizes) {
  for (const MinExtent &M : K.MinExtents) {
    std::int64_t N = M.Extent->evaluate(Sizes);
    if (N >= M.Min)
      continue;
    throw RecoverableError(
        "kernel '" + K.Name + "': axis " + M.Extent->toString() + " = " +
        std::to_string(N) + " is shorter than its tile of " +
        std::to_string(M.Min) + "; this tiling was lowered for extents >= " +
        std::to_string(M.Min) +
        " (lower with LoweringOptions::OutputExtents to clamp the tile)");
  }
}

void Executor::bindInput(int BufferId, const std::vector<float> &Data) {
  BufferStorage &B = Buffers[std::size_t(BufferId)];
  if (B.Kind == ScalarKind::Float) {
    if (Data.size() != B.F.size())
      fatalError("bindInput: size mismatch for buffer " +
                 K.buffer(BufferId).Name + " (got " +
                 std::to_string(Data.size()) + ", want " +
                 std::to_string(B.F.size()) + ")");
    B.F = Data;
    return;
  }
  if (Data.size() != B.I.size())
    fatalError("bindInput: size mismatch for int buffer");
  for (std::size_t I = 0; I != Data.size(); ++I)
    B.I[I] = std::int32_t(Data[I]);
}

std::vector<float> Executor::bufferContents(int BufferId) const {
  const BufferStorage &B = Buffers[std::size_t(BufferId)];
  if (B.Kind == ScalarKind::Float)
    return B.F;
  std::vector<float> Out(B.I.size());
  for (std::size_t I = 0; I != B.I.size(); ++I)
    Out[I] = float(B.I[I]);
  return Out;
}

void Executor::run() {
  obs::Span RunSpan("sim.run", "sim");
  RunSpan.arg("kernel", K.Name);
  execStmts(K.Body);
  RunSpan.arg("flops", std::int64_t(Counters.Flops));
}

void lift::ocl::exportCountersToMetrics(const ExecCounters &C,
                                        const std::string &Prefix) {
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter(Prefix + "global_loads").inc(C.GlobalLoads);
  Reg.counter(Prefix + "global_stores").inc(C.GlobalStores);
  Reg.counter(Prefix + "global_load_line_misses")
      .inc(C.GlobalLoadLineMisses);
  Reg.counter(Prefix + "local_loads").inc(C.LocalLoads);
  Reg.counter(Prefix + "local_stores").inc(C.LocalStores);
  Reg.counter(Prefix + "private_accesses").inc(C.PrivateAccesses);
  Reg.counter(Prefix + "flops").inc(C.Flops);
  Reg.counter(Prefix + "user_fun_calls").inc(C.UserFunCalls);
  Reg.counter(Prefix + "loop_iterations").inc(C.LoopIterations);
  Reg.counter(Prefix + "barriers").inc(C.Barriers);
  Reg.counter(Prefix + "select_evals").inc(C.SelectEvals);
}

void Executor::execStmts(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &S : Stmts)
    execStmt(*S);
}

std::int64_t Executor::evalIndex(const AExpr &A) { return A->evaluate(Env); }

void Executor::execStmt(const Stmt &S) {
  switch (S.K) {
  case Stmt::Kind::Store: {
    Scalar V = evalExpr(*S.Value);
    storeTo(S.BufferId, evalIndex(S.Index), V);
    return;
  }
  case Stmt::Kind::AssignVar:
    Registers[std::size_t(S.VarId)] = evalExpr(*S.Value);
    return;
  case Stmt::Kind::Barrier:
    ++Counters.Barriers;
    return;
  case Stmt::Kind::Loop: {
    std::int64_t Extent = evalIndex(S.Count);
    unsigned VarId = S.LoopVar->getVarId();
    for (std::int64_t I = 0; I != Extent; ++I) {
      Env[VarId] = I;
      execStmts(S.Body);
    }
    Env.erase(VarId);
    // Unrolled loops (reduceSeqUnroll, paper §4.3) pay no per-iteration
    // branch/increment overhead; only the loop setup is charged.
    Counters.LoopIterations += S.Unroll ? 1 : std::uint64_t(Extent);
    return;
  }
  }
  unreachable("covered switch");
}

void Executor::touchCache(const BufferStorage &B, std::int64_t ElemIndex) {
  std::int64_t Addr = B.VirtualBase + ElemIndex * 4;
  std::int64_t Line = Addr / Cache.LineBytes;
  std::int64_t Set = Line % CacheSets;
  std::int64_t *Ways = &CacheTags[std::size_t(Set * Cache.Ways)];
  // LRU within the set: front is most recently used.
  for (int W = 0; W != Cache.Ways; ++W) {
    if (Ways[W] != Line)
      continue;
    // Hit: move to front.
    for (int X = W; X > 0; --X)
      Ways[X] = Ways[X - 1];
    Ways[0] = Line;
    return;
  }
  // Miss: evict LRU.
  ++Counters.GlobalLoadLineMisses;
  for (int X = Cache.Ways - 1; X > 0; --X)
    Ways[X] = Ways[X - 1];
  Ways[0] = Line;
}

Scalar Executor::loadFrom(int BufferId, std::int64_t Index) {
  const BufferDecl &Decl = K.buffer(BufferId);
  BufferStorage &B = Buffers[std::size_t(BufferId)];
  std::size_t N = B.Kind == ScalarKind::Float ? B.F.size() : B.I.size();
  if (Index < 0 || std::size_t(Index) >= N)
    fatalError("simulated load out of bounds: " + Decl.Name + "[" +
               std::to_string(Index) + "] of " + std::to_string(N));
  switch (Decl.Space) {
  case MemSpace::Global:
    ++Counters.GlobalLoads;
    touchCache(B, Index);
    break;
  case MemSpace::Local:
    ++Counters.LocalLoads;
    break;
  case MemSpace::Private:
    ++Counters.PrivateAccesses;
    break;
  }
  if (B.Kind == ScalarKind::Float)
    return Scalar(B.F[std::size_t(Index)]);
  return Scalar(B.I[std::size_t(Index)]);
}

void Executor::storeTo(int BufferId, std::int64_t Index, Scalar V) {
  const BufferDecl &Decl = K.buffer(BufferId);
  BufferStorage &B = Buffers[std::size_t(BufferId)];
  std::size_t N = B.Kind == ScalarKind::Float ? B.F.size() : B.I.size();
  if (Index < 0 || std::size_t(Index) >= N)
    fatalError("simulated store out of bounds: " + Decl.Name + "[" +
               std::to_string(Index) + "] of " + std::to_string(N));
  switch (Decl.Space) {
  case MemSpace::Global:
    ++Counters.GlobalStores;
    break;
  case MemSpace::Local:
    ++Counters.LocalStores;
    break;
  case MemSpace::Private:
    ++Counters.PrivateAccesses;
    break;
  }
  if (B.Kind == ScalarKind::Float) {
    B.F[std::size_t(Index)] = V.asFloat();
    return;
  }
  B.I[std::size_t(Index)] = V.asInt();
}

Scalar Executor::evalExpr(const KExpr &E) {
  switch (E.K) {
  case KExpr::Kind::ConstScalar:
    return E.Const;
  case KExpr::Kind::IndexVal:
    return Scalar(std::int32_t(evalIndex(E.Index)));
  case KExpr::Kind::ReadVar:
    return Registers[std::size_t(E.VarId)];
  case KExpr::Kind::Load:
    return loadFrom(E.BufferId, evalIndex(E.Index));
  case KExpr::Kind::CallUF: {
    std::vector<Scalar> Args;
    Args.reserve(E.Args.size());
    for (const KExprPtr &A : E.Args)
      Args.push_back(evalExpr(*A));
    ++Counters.UserFunCalls;
    Counters.Flops += std::uint64_t(E.UF->getFlopCost());
    return E.UF->evaluate(Args);
  }
  case KExpr::Kind::Select: {
    ++Counters.SelectEvals;
    for (const BoundsCheck &C : E.Checks) {
      std::int64_t I = evalIndex(C.Idx);
      if (I < evalIndex(C.Lo) || I >= evalIndex(C.Hi))
        return evalExpr(*E.Else);
    }
    return evalExpr(*E.Then);
  }
  }
  unreachable("covered switch");
}
