//===- CodeGen.cpp - Low-level Lift IR to kernel AST ------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"

#include "codegen/View.h"
#include "ir/TypeInference.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Support.h"

#include <cassert>
#include <optional>
#include <unordered_map>

using namespace lift;
using namespace lift::ir;
using namespace lift::ocl;
using namespace lift::codegen;

namespace {

class Generator {
public:
  Compiled run(const Program &P, const std::string &Name) {
    if (!P->getType())
      inferTypes(P);
    Compiled Result;
    K.Name = Name;

    for (const ParamPtr &In : P->getParams()) {
      int Id = newBuffer("in" + std::to_string(Result.InputBufferIds.size()),
                         MemSpace::Global, In->getDeclaredType(),
                         /*IsInput=*/true, /*IsOutput=*/false);
      Result.InputBufferIds.push_back(Id);
      ViewEnv[In.get()] = vMemory(Id, In->getDeclaredType());
    }

    const TypePtr &OutTy = P->getBody()->getType();
    int OutId = newBuffer("out", MemSpace::Global, OutTy, /*IsInput=*/false,
                          /*IsOutput=*/true);
    Result.OutputBufferId = OutId;

    CurBlock = &K.Body;
    genToView(P->getBody(), vMemory(OutId, OutTy));

    collectSizeArgs();
    Result.K = std::move(K);
    return Result;
  }

private:
  Kernel K;
  std::unordered_map<const ParamExpr *, ViewPtr> ViewEnv;

  /// Records the launch precondition of a clamped slide or join: the
  /// last window starts at \p Extent - \p Min, so the axis must hold at
  /// least one full window. Only symbolic extents need recording.
  void noteMinExtent(const AExpr &Extent, const AExpr &Min) {
    if (Extent->getKind() == ArithExpr::Kind::Cst ||
        Min->getKind() != ArithExpr::Kind::Cst)
      return;
    for (const MinExtent &M : K.MinExtents)
      if (M.Extent == Extent && M.Min == Min->getCst())
        return;
    K.MinExtents.push_back({Extent, Min->getCst()});
  }
  std::vector<StmtPtr> *CurBlock = nullptr;
  int NextTmp = 0;
  int NextLoopVar = 0;

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  int newBuffer(const std::string &Name, MemSpace Space, const TypePtr &Ty,
                bool IsInput, bool IsOutput) {
    BufferDecl B;
    B.Id = int(K.Buffers.size());
    B.Name = Name;
    B.ElemKind = ultimateElem(Ty)->getScalarKind();
    B.Space = Space;
    B.NumElems = elementCount(Ty);
    B.IsInput = IsInput;
    B.IsOutput = IsOutput;
    K.Buffers.push_back(B);
    return B.Id;
  }

  int newRegister(ScalarKind Kind) {
    RegisterDecl R;
    R.Id = int(K.Registers.size());
    R.Name = "acc" + std::to_string(R.Id);
    R.Kind = Kind;
    K.Registers.push_back(R);
    return R.Id;
  }

  /// A fresh loop variable with range [0, Count-1] when Count is
  /// constant (tight ranges enable div/mod simplification in views).
  AExpr newLoopVar(const AExpr &Count) {
    Range R;
    R.Min = 0;
    if (Count->getKind() == ArithExpr::Kind::Cst)
      R.Max = Count->getCst() - 1;
    return var("i" + std::to_string(NextLoopVar++), R);
  }

  void emit(StmtPtr S) { CurBlock->push_back(std::move(S)); }

  //===--------------------------------------------------------------------===//
  // Views for data expressions
  //===--------------------------------------------------------------------===//

  static bool isLayoutPrim(Prim P) {
    switch (P) {
    case Prim::Zip:
    case Prim::Split:
    case Prim::Join:
    case Prim::Transpose:
    case Prim::Slide:
    case Prim::SlideClamp:
    case Prim::JoinClamp:
    case Prim::Pad:
    case Prim::At:
    case Prim::Get:
    case Prim::Generate:
      return true;
    default:
      return false;
    }
  }

  /// Returns a view of \p E's value, materializing compute expressions
  /// into temporary buffers.
  ViewPtr valueOf(const ExprPtr &E) {
    switch (E->getKind()) {
    case Expr::Kind::Literal:
      return vScalar(kConst(dynCast<LiteralExpr>(E)->getValue()));
    case Expr::Kind::Param: {
      auto It = ViewEnv.find(static_cast<const ParamExpr *>(E.get()));
      if (It == ViewEnv.end())
        fatalError("codegen: unbound parameter " +
                   dynCast<ParamExpr>(E)->getName());
      return It->second;
    }
    case Expr::Kind::Lambda:
      fatalError("codegen: lambda outside function position");
    case Expr::Kind::Call:
      break;
    }

    const auto *C = dynCast<CallExpr>(E);
    if (isLayoutPrim(C->getPrim()))
      return layoutView(*C);

    // High-level maps whose body is pure layout (the map(slide) /
    // map(transpose) compositions of slideNd/padNd, paper 3.4) are
    // themselves layout: beta-reduce them lazily during resolution.
    if (C->getPrim() == Prim::Map) {
      const auto F = std::static_pointer_cast<LambdaExpr>(C->getArgs()[0]);
      if (isLayoutOnly(F->getBody()))
        return vMapLazy(F, valueOf(C->getArgs()[1]));
      fatalError("codegen: high-level map with compute body used as "
                 "data; lower it first: " + ir::toString(E));
    }

    // A compute expression used as data.
    if (E->getType()->getKind() == Type::Kind::Scalar)
      return vScalar(genScalar(E));
    return materialize(E);
  }

  /// True when \p E consists only of layout primitives, parameters and
  /// layout-only maps -- i.e. it can live entirely in the view system.
  static bool isLayoutOnly(const ExprPtr &E) {
    switch (E->getKind()) {
    case Expr::Kind::Param:
      return true;
    case Expr::Kind::Literal:
    case Expr::Kind::Lambda:
      return false;
    case Expr::Kind::Call:
      break;
    }
    const auto *C = dynCast<CallExpr>(E);
    if (C->getPrim() == Prim::Map) {
      const auto *F = dynCast<LambdaExpr>(C->getArgs()[0]);
      return isLayoutOnly(F->getBody()) && isLayoutOnly(C->getArgs()[1]);
    }
    if (!isLayoutPrim(C->getPrim()))
      return false;
    if (C->getPrim() == Prim::Generate)
      return true;
    for (const ExprPtr &A : C->getArgs())
      if (!isLayoutOnly(A))
        return false;
    return true;
  }

  ViewPtr layoutView(const CallExpr &C) {
    switch (C.getPrim()) {
    case Prim::Zip: {
      std::vector<ViewPtr> Comps;
      for (const ExprPtr &A : C.getArgs())
        Comps.push_back(valueOf(A));
      return vTuple(std::move(Comps));
    }
    case Prim::Split:
      return vSplit(C.Factor, valueOf(C.getArgs()[0]));
    case Prim::Join: {
      const TypePtr &InTy = C.getArgs()[0]->getType();
      return vJoin(InTy->getElem()->getSize(), valueOf(C.getArgs()[0]));
    }
    case Prim::Transpose:
      return vTranspose(valueOf(C.getArgs()[0]));
    case Prim::Slide:
      return vSlide(C.Size, C.Step, valueOf(C.getArgs()[0]));
    case Prim::SlideClamp: {
      // Window w starts at min(w*step, n - size).
      const TypePtr &InTy = C.getArgs()[0]->getType();
      noteMinExtent(InTy->getSize(), C.Size);
      return vSlideClamped(C.Size, C.Step, sub(InTy->getSize(), C.Size),
                           valueOf(C.getArgs()[0]));
    }
    case Prim::JoinClamp: {
      // Element o lives in tile o/k at offset o - min((o/k)*k, m - k).
      const TypePtr &InTy = C.getArgs()[0]->getType();
      AExpr K = InTy->getElem()->getSize();
      noteMinExtent(C.Size, K);
      return vJoinClamped(K, sub(C.Size, K), valueOf(C.getArgs()[0]));
    }
    case Prim::Pad: {
      const TypePtr &InTy = C.getArgs()[0]->getType();
      return vPad(C.PadL, InTy->getSize(), C.Bdy, valueOf(C.getArgs()[0]));
    }
    case Prim::At:
      return vAccess(cst(C.Index), valueOf(C.getArgs()[0]));
    case Prim::Get:
      return vTupleAccess(C.Index, valueOf(C.getArgs()[0]));
    case Prim::Generate:
      return vGenerate(
          std::static_pointer_cast<LambdaExpr>(C.getArgs()[0]), C.GenSizes);
    default:
      unreachable("not a layout primitive");
    }
  }

  /// Evaluates compute expression \p E into a fresh buffer and returns
  /// its memory view. The buffer's space comes from the expression's
  /// producing lambda (toLocal/toGlobal/toPrivate); the default is a
  /// global temporary.
  ViewPtr materialize(const ExprPtr &E) {
    MemSpace Space = MemSpace::Global;
    std::string Prefix = "tmp";
    if (const auto *C = dynCast<CallExpr>(E)) {
      if (isMapPrim(C->getPrim())) {
        const auto *F = dynCast<LambdaExpr>(C->getArgs()[0]);
        if (F->getAddrSpace() == AddrSpace::Local) {
          Space = MemSpace::Local;
          Prefix = "lcl";
        } else if (F->getAddrSpace() == AddrSpace::Private) {
          Space = MemSpace::Private;
          Prefix = "prv";
        }
      }
    }
    int Id = newBuffer(Prefix + std::to_string(NextTmp++), Space,
                       E->getType(), false, false);
    ViewPtr Mem = vMemory(Id, E->getType());
    genToView(E, Mem);
    // Local results are read by other work-items: synchronize.
    if (Space == MemSpace::Local)
      emit(sBarrier());
    return Mem;
  }

  //===--------------------------------------------------------------------===//
  // Statement generation
  //===--------------------------------------------------------------------===//

  /// Emits statements computing \p E into \p Out.
  void genToView(const ExprPtr &E, const ViewPtr &Out) {
    if (const auto *C = dynCast<CallExpr>(E)) {
      // A reshaping map around a producer: push the inverted element
      // layout onto the output view and recurse into the map's input.
      if (C->getPrim() == Prim::Map) {
        const auto F = std::static_pointer_cast<LambdaExpr>(C->getArgs()[0]);
        if (auto Inv = buildElementInverse(F->getBody(),
                                           F->getParams()[0].get())) {
          genToView(C->getArgs()[1], vMapLazyFn(*Inv, Out));
          return;
        }
      }
      if (isMapPrim(C->getPrim())) {
        genMap(*C, Out);
        return;
      }
      if (isReducePrim(C->getPrim())) {
        genReduceStore(*C, Out);
        return;
      }
      if (C->getPrim() == Prim::Iterate)
        fatalError("codegen: iterate must be unrolled by the rewriter "
                   "before code generation");
      // Layout on the *output* path: push the inverse transform onto
      // the output view and recurse into the producer, so e.g. the
      // tiling rule's join(mapWrg(...)) writes directly to the right
      // offsets (paper 4.1).
      if (C->getPrim() == Prim::Join) {
        const TypePtr &ArgTy = C->getArgs()[0]->getType();
        genToView(C->getArgs()[0],
                  vSplit(ArgTy->getElem()->getSize(), Out));
        return;
      }
      if (C->getPrim() == Prim::JoinClamp) {
        // The producer's tile w element j must land at out[min(w*k,
        // m-k)+j]: exactly a clamped slide view of the output buffer.
        // Overlap positions are stored more than once with identical
        // values (last writer wins).
        const TypePtr &ArgTy = C->getArgs()[0]->getType();
        AExpr K = ArgTy->getElem()->getSize();
        noteMinExtent(C->Size, K);
        genToView(C->getArgs()[0],
                  vSlideClamped(K, K, sub(C->Size, K), Out));
        return;
      }
      if (C->getPrim() == Prim::Split) {
        genToView(C->getArgs()[0], vJoin(C->Factor, Out));
        return;
      }
      if (C->getPrim() == Prim::Transpose) {
        genToView(C->getArgs()[0], vTranspose(Out));
        return;
      }
    }
    if (E->getType()->getKind() == Type::Kind::Scalar) {
      // Covers user-function calls, literals and at(0, reduceSeq(...));
      // genScalar keeps reduction results in registers.
      storeScalar(genScalar(E), Out);
      return;
    }
    // Pure layout (or parameter) written to memory: an element-wise copy.
    emitCopy(valueOf(E), Out, E->getType());
  }

  void genMap(const CallExpr &C, const ViewPtr &Out) {
    LoopKind LK;
    switch (C.getPrim()) {
    case Prim::MapGlb:
      LK = LoopKind::Glb;
      break;
    case Prim::MapWrg:
      LK = LoopKind::Wrg;
      break;
    case Prim::MapLcl:
      LK = LoopKind::Lcl;
      break;
    case Prim::MapSeq:
      LK = LoopKind::Seq;
      break;
    case Prim::Map:
      fatalError("codegen: high-level map reached code generation; "
                 "lower it to mapGlb/mapWrg/mapLcl/mapSeq first");
    default:
      unreachable("not a map primitive");
    }

    const auto F = std::static_pointer_cast<LambdaExpr>(C.getArgs()[0]);
    ViewPtr In = valueOf(C.getArgs()[1]);
    AExpr Count = C.getType()->getSize();
    AExpr I = newLoopVar(Count);

    std::vector<StmtPtr> BodyStmts;
    std::vector<StmtPtr> *Saved = CurBlock;
    CurBlock = &BodyStmts;
    ViewEnv[F->getParams()[0].get()] = vAccess(I, In);
    genToView(F->getBody(), vAccess(I, Out));
    CurBlock = Saved;

    emit(sLoop(LK, C.Dim, I, Count, std::move(BodyStmts)));
  }

  /// Generates a reduce-family expression into an accumulator register
  /// and returns the register id.
  int genReduceToRegister(const CallExpr &C) {
    const auto F = std::static_pointer_cast<LambdaExpr>(C.getArgs()[0]);
    const ExprPtr &Init = C.getArgs()[1];
    if (Init->getType()->getKind() != Type::Kind::Scalar)
      fatalError("codegen: only scalar reduction accumulators are "
                 "supported");
    int Acc = newRegister(Init->getType()->getScalarKind());
    emit(sAssign(Acc, genScalar(Init)));

    ViewPtr In = valueOf(C.getArgs()[2]);
    AExpr Count = C.getArgs()[2]->getType()->getSize();
    AExpr I = newLoopVar(Count);

    std::vector<StmtPtr> BodyStmts;
    std::vector<StmtPtr> *Saved = CurBlock;
    CurBlock = &BodyStmts;
    ViewEnv[F->getParams()[0].get()] = vScalar(kReadVar(Acc));
    ViewEnv[F->getParams()[1].get()] = vAccess(I, In);
    KExprPtr Updated = genScalar(F->getBody());
    emit(sAssign(Acc, Updated));
    CurBlock = Saved;

    bool Unroll = C.getPrim() == Prim::ReduceSeqUnroll;
    emit(sLoop(LoopKind::Seq, 0, I, Count, std::move(BodyStmts), Unroll));
    return Acc;
  }

  void genReduceStore(const CallExpr &C, const ViewPtr &Out) {
    if (C.getPrim() == Prim::Reduce)
      fatalError("codegen: high-level reduce reached code generation; "
                 "lower it to reduceSeq first");
    int Acc = genReduceToRegister(C);
    // The result type is [U]1: store the accumulator at index 0.
    storeScalar(kReadVar(Acc), vAccess(cst(0), Out));
  }

  void storeScalar(KExprPtr Val, const ViewPtr &Out) {
    StoreTarget T = resolveStore(Out, callbacks());
    emit(sStore(T.BufferId, T.Index, std::move(Val)));
  }

  /// Builds, when possible, the elementwise *inverse* of a layout-only
  /// lambda consisting of Join/Split/Transpose over its parameter, as a
  /// view transformer: writing x through Inv(out) is equivalent to
  /// writing chain(x) to out. Enables reshaping maps (untileNd) around
  /// producers to vanish into output index arithmetic.
  std::optional<std::function<ViewPtr(const ViewPtr &)>>
  buildElementInverse(const ExprPtr &Body, const ParamExpr *P) {
    if (Body.get() == P)
      return std::function<ViewPtr(const ViewPtr &)>(
          [](const ViewPtr &V) { return V; });
    const auto *C = dynCast<CallExpr>(Body);
    if (!C || C->getArgs().empty())
      return std::nullopt;
    const ExprPtr &Inner = C->getArgs()[0];
    switch (C->getPrim()) {
    case Prim::Join: {
      // forward join merges [a][m] -> [a*m]; inverse splits by m.
      const TypePtr &InnerTy = Inner->getType();
      if (!InnerTy || InnerTy->getKind() != Type::Kind::Array)
        return std::nullopt;
      AExpr M = InnerTy->getElem()->getSize();
      auto Rec = buildElementInverse(Inner, P);
      if (!Rec)
        return std::nullopt;
      return std::function<ViewPtr(const ViewPtr &)>(
          [M, Rec](const ViewPtr &V) { return (*Rec)(vSplit(M, V)); });
    }
    case Prim::JoinClamp: {
      // forward joinClamp merges [t][k] -> [m] with clamped tile
      // starts; inverse views the output as a clamped k/k slide.
      const TypePtr &InnerTy = Inner->getType();
      if (!InnerTy || InnerTy->getKind() != Type::Kind::Array ||
          InnerTy->getElem()->getKind() != Type::Kind::Array)
        return std::nullopt;
      AExpr K = InnerTy->getElem()->getSize();
      AExpr ClampMax = sub(C->Size, K);
      noteMinExtent(C->Size, K);
      auto Rec = buildElementInverse(Inner, P);
      if (!Rec)
        return std::nullopt;
      return std::function<ViewPtr(const ViewPtr &)>(
          [K, ClampMax, Rec](const ViewPtr &V) {
            return (*Rec)(vSlideClamped(K, K, ClampMax, V));
          });
    }
    case Prim::Split: {
      AExpr M = C->Factor;
      auto Rec = buildElementInverse(Inner, P);
      if (!Rec)
        return std::nullopt;
      return std::function<ViewPtr(const ViewPtr &)>(
          [M, Rec](const ViewPtr &V) { return (*Rec)(vJoin(M, V)); });
    }
    case Prim::Transpose: {
      auto Rec = buildElementInverse(Inner, P);
      if (!Rec)
        return std::nullopt;
      return std::function<ViewPtr(const ViewPtr &)>(
          [Rec](const ViewPtr &V) { return (*Rec)(vTranspose(V)); });
    }
    case Prim::Map: {
      // map(g) applied along the way (e.g. map(map(join)) in 3D
      // untiling): invert g elementwise one level deeper. Note the
      // map's data argument is getArgs()[1].
      const auto G = std::static_pointer_cast<LambdaExpr>(C->getArgs()[0]);
      auto InvG = buildElementInverse(G->getBody(), G->getParams()[0].get());
      auto Rec = buildElementInverse(C->getArgs()[1], P);
      if (!InvG || !Rec)
        return std::nullopt;
      auto InvGFn = *InvG;
      return std::function<ViewPtr(const ViewPtr &)>(
          [InvGFn, Rec](const ViewPtr &V) {
            return (*Rec)(vMapLazyFn(InvGFn, V));
          });
    }
    default:
      return std::nullopt;
    }
  }

  /// Copies \p Ty-shaped data from \p In to \p Out with sequential
  /// loops (used when a layout expression must land in memory).
  void emitCopy(const ViewPtr &In, const ViewPtr &Out, const TypePtr &Ty) {
    if (Ty->getKind() == Type::Kind::Scalar) {
      storeScalar(loadScalar(In), Out);
      return;
    }
    if (Ty->getKind() == Type::Kind::Tuple)
      fatalError("codegen: cannot copy tuple values to memory");
    AExpr Count = Ty->getSize();
    AExpr I = newLoopVar(Count);
    std::vector<StmtPtr> BodyStmts;
    std::vector<StmtPtr> *Saved = CurBlock;
    CurBlock = &BodyStmts;
    emitCopy(vAccess(I, In), vAccess(I, Out), Ty->getElem());
    CurBlock = Saved;
    emit(sLoop(LoopKind::Seq, 0, I, Count, std::move(BodyStmts)));
  }

  //===--------------------------------------------------------------------===//
  // Scalar expression generation
  //===--------------------------------------------------------------------===//

  ResolveCallbacks callbacks() {
    ResolveCallbacks CB;
    CB.InlineGenerate = [this](const LambdaPtr &F,
                               const std::vector<AExpr> &Indices) {
      return inlineGenerator(F, Indices);
    };
    CB.ExpandMap = [this](const LambdaPtr &F, const ViewPtr &Elem) {
      ViewEnv[F->getParams()[0].get()] = Elem;
      return valueOf(F->getBody());
    };
    return CB;
  }

  KExprPtr loadScalar(const ViewPtr &V) { return resolveLoad(V, callbacks()); }

  KExprPtr inlineGenerator(const LambdaPtr &F,
                           const std::vector<AExpr> &Indices) {
    assert(F->getParams().size() == Indices.size() && "generator arity");
    for (std::size_t I = 0, E = Indices.size(); I != E; ++I)
      ViewEnv[F->getParams()[I].get()] = vScalar(kIndexVal(Indices[I]));
    return genScalar(F->getBody());
  }

  /// Generates a scalar-typed expression; may emit statements (e.g. a
  /// reduction loop feeding a register) into the current block.
  KExprPtr genScalar(const ExprPtr &E) {
    switch (E->getKind()) {
    case Expr::Kind::Literal:
      return kConst(dynCast<LiteralExpr>(E)->getValue());
    case Expr::Kind::Param:
      return loadScalar(valueOf(E));
    case Expr::Kind::Lambda:
      fatalError("codegen: lambda in scalar position");
    case Expr::Kind::Call:
      break;
    }

    const auto *C = dynCast<CallExpr>(E);
    switch (C->getPrim()) {
    case Prim::UserFunCall: {
      std::vector<KExprPtr> Args;
      Args.reserve(C->getArgs().size());
      for (const ExprPtr &A : C->getArgs())
        Args.push_back(genScalar(A));
      K.noteUserFun(C->UF);
      return kCallUF(C->UF, std::move(Args));
    }
    case Prim::SizeVal:
      return kIndexVal(C->Size);
    case Prim::At: {
      // at(0, reduceSeq(...)): keep the result in its register instead
      // of bouncing through memory — this matches Lift's accumulator
      // code generation.
      if (const auto *Inner = dynCast<CallExpr>(C->getArgs()[0])) {
        if (isReducePrim(Inner->getPrim()) && C->Index == 0) {
          if (Inner->getPrim() == Prim::Reduce)
            fatalError("codegen: high-level reduce reached code "
                       "generation; lower it to reduceSeq first");
          return kReadVar(genReduceToRegister(*Inner));
        }
      }
      return loadScalar(valueOf(E));
    }
    default:
      // Any other scalar-typed expression is layout over data.
      return loadScalar(valueOf(E));
    }
  }

  //===--------------------------------------------------------------------===//
  // Size argument collection
  //===--------------------------------------------------------------------===//

  void collectVarsIn(const AExpr &A, std::vector<unsigned> &Bound,
                     std::vector<std::pair<unsigned, std::string>> &Out) {
    if (!A)
      return;
    collectFreeVarExprs(A, Bound, Out);
  }

  static void collectFreeVarExprs(
      const AExpr &A, const std::vector<unsigned> &Bound,
      std::vector<std::pair<unsigned, std::string>> &Out) {
    if (A->getKind() == ArithExpr::Kind::Var) {
      unsigned Id = A->getVarId();
      for (unsigned B : Bound)
        if (B == Id)
          return;
      for (const auto &[ExistingId, Name] : Out)
        if (ExistingId == Id)
          return;
      Out.emplace_back(Id, A->getVarName());
      return;
    }
    for (const AExpr &Op : A->getOperands())
      collectFreeVarExprs(Op, Bound, Out);
  }

  void collectStmtVars(const StmtPtr &S, std::vector<unsigned> &Bound,
                       std::vector<std::pair<unsigned, std::string>> &Out) {
    switch (S->K) {
    case Stmt::Kind::Store:
      collectVarsIn(S->Index, Bound, Out);
      collectExprVars(S->Value, Bound, Out);
      return;
    case Stmt::Kind::AssignVar:
      collectExprVars(S->Value, Bound, Out);
      return;
    case Stmt::Kind::Barrier:
      return;
    case Stmt::Kind::Loop: {
      collectVarsIn(S->Count, Bound, Out);
      Bound.push_back(S->LoopVar->getVarId());
      for (const StmtPtr &B : S->Body)
        collectStmtVars(B, Bound, Out);
      Bound.pop_back();
      return;
    }
    }
  }

  void collectExprVars(const KExprPtr &E, std::vector<unsigned> &Bound,
                       std::vector<std::pair<unsigned, std::string>> &Out) {
    if (!E)
      return;
    collectVarsIn(E->Index, Bound, Out);
    for (const KExprPtr &A : E->Args)
      collectExprVars(A, Bound, Out);
    for (const BoundsCheck &C : E->Checks) {
      collectVarsIn(C.Idx, Bound, Out);
      collectVarsIn(C.Lo, Bound, Out);
      collectVarsIn(C.Hi, Bound, Out);
    }
    collectExprVars(E->Then, Bound, Out);
    collectExprVars(E->Else, Bound, Out);
  }

  void collectSizeArgs() {
    std::vector<unsigned> Bound;
    std::vector<std::pair<unsigned, std::string>> Args;
    for (const BufferDecl &B : K.Buffers)
      collectVarsIn(B.NumElems, Bound, Args);
    for (const StmtPtr &S : K.Body)
      collectStmtVars(S, Bound, Args);
    K.SizeArgs = std::move(Args);
  }
};

} // namespace

Compiled lift::codegen::compileProgram(const Program &P,
                                       const std::string &Name) {
  obs::Span CodegenSpan("codegen", "codegen");
  CodegenSpan.arg("kernel", Name);
  Generator G;
  Compiled C = G.run(P, Name);
  obs::Registry::global().counter("codegen.kernels").inc();
  CodegenSpan.arg("buffers", std::int64_t(C.K.Buffers.size()));
  return C;
}
