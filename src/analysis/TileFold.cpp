//===- TileFold.cpp - Fold tiled kernels into grid loops ------------------===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/TileFold.h"

#include "analysis/RangeAnalysis.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace lift {
namespace analysis {

namespace {

using ocl::KExpr;
using ocl::KExprPtr;
using ocl::LoopKind;
using ocl::Stmt;
using ocl::StmtPtr;
using IndexFn = std::function<AExpr(const AExpr &)>;
using Subst = std::unordered_map<unsigned, AExpr>;

bool isLoop(const StmtPtr &S, LoopKind LK) {
  return S->K == Stmt::Kind::Loop && S->LK == LK;
}

//===----------------------------------------------------------------------===//
// Walks over every index expression of a statement list
//===----------------------------------------------------------------------===//

/// \p E rebuilt with every index expression mapped by \p Fn and, with
/// \p Buf, every buffer id B renumbered to (*Buf)[B].
KExprPtr mapExpr(const KExprPtr &E, const IndexFn &Fn,
                 const std::vector<int> *Buf = nullptr) {
  switch (E->K) {
  case KExpr::Kind::ConstScalar:
  case KExpr::Kind::ReadVar:
    return E;
  case KExpr::Kind::IndexVal:
    return ocl::kIndexVal(Fn(E->Index));
  case KExpr::Kind::Load:
    return ocl::kLoad(Buf ? (*Buf)[std::size_t(E->BufferId)] : E->BufferId,
                      Fn(E->Index));
  case KExpr::Kind::CallUF: {
    std::vector<KExprPtr> Args;
    Args.reserve(E->Args.size());
    for (const KExprPtr &A : E->Args)
      Args.push_back(mapExpr(A, Fn, Buf));
    return ocl::kCallUF(E->UF, std::move(Args));
  }
  case KExpr::Kind::Select: {
    std::vector<ocl::BoundsCheck> Checks;
    Checks.reserve(E->Checks.size());
    for (const ocl::BoundsCheck &B : E->Checks)
      Checks.push_back({Fn(B.Idx), Fn(B.Lo), Fn(B.Hi)});
    return ocl::kSelect(std::move(Checks), mapExpr(E->Then, Fn, Buf),
                        mapExpr(E->Else, Fn, Buf));
  }
  }
  return E;
}

std::vector<StmtPtr> mapStmts(const std::vector<StmtPtr> &Body,
                              const IndexFn &Fn,
                              const std::vector<int> *Buf = nullptr) {
  std::vector<StmtPtr> Out;
  Out.reserve(Body.size());
  for (const StmtPtr &S : Body) {
    switch (S->K) {
    case Stmt::Kind::Store:
      Out.push_back(ocl::sStore(
          Buf ? (*Buf)[std::size_t(S->BufferId)] : S->BufferId,
          Fn(S->Index), mapExpr(S->Value, Fn, Buf)));
      break;
    case Stmt::Kind::AssignVar:
      Out.push_back(ocl::sAssign(S->VarId, mapExpr(S->Value, Fn, Buf)));
      break;
    case Stmt::Kind::Barrier:
      Out.push_back(S);
      break;
    case Stmt::Kind::Loop:
      Out.push_back(ocl::sLoop(S->LK, S->Dim, S->LoopVar, Fn(S->Count),
                               mapStmts(S->Body, Fn, Buf), S->Unroll,
                               S->Simd));
      break;
    }
  }
  return Out;
}

std::vector<StmtPtr> substituteStmts(const std::vector<StmtPtr> &Body,
                                     const Subst &S) {
  return mapStmts(Body, [&](const AExpr &E) { return substitute(E, S); });
}

void visitExpr(const KExprPtr &E, const std::function<void(const AExpr &)> &Fn) {
  if (E->Index)
    Fn(E->Index);
  for (const ocl::BoundsCheck &B : E->Checks) {
    Fn(B.Idx);
    Fn(B.Lo);
    Fn(B.Hi);
  }
  for (const KExprPtr &A : E->Args)
    visitExpr(A, Fn);
  if (E->Then)
    visitExpr(E->Then, Fn);
  if (E->Else)
    visitExpr(E->Else, Fn);
}

void visitStmts(const std::vector<StmtPtr> &Body,
                const std::function<void(const AExpr &)> &Fn) {
  for (const StmtPtr &S : Body) {
    if (S->Index)
      Fn(S->Index);
    if (S->Count)
      Fn(S->Count);
    if (S->Value)
      visitExpr(S->Value, Fn);
    visitStmts(S->Body, Fn);
  }
}

bool mentions(const std::vector<StmtPtr> &Body, unsigned Id) {
  bool Found = false;
  visitStmts(Body, [&](const AExpr &E) {
    if (Found)
      return;
    std::vector<unsigned> Vars;
    collectVars(E, Vars);
    Found = std::find(Vars.begin(), Vars.end(), Id) != Vars.end();
  });
  return Found;
}

/// The buffers a statement list loads and stores, and whether every
/// register it reads was assigned earlier in the list (its per-iteration
/// values then never flow in from another iteration).
struct Uses {
  std::unordered_set<int> Loaded, Stored, Assigned;
  bool RegsLocal = true;
  bool NestedGrid = false; ///< holds a Glb/Wrg/Lcl loop

  void expr(const KExprPtr &E) {
    if (E->K == KExpr::Kind::Load)
      Loaded.insert(E->BufferId);
    if (E->K == KExpr::Kind::ReadVar && !Assigned.count(E->VarId))
      RegsLocal = false;
    for (const KExprPtr &A : E->Args)
      expr(A);
    if (E->Then)
      expr(E->Then);
    if (E->Else)
      expr(E->Else);
  }

  void stmts(const std::vector<StmtPtr> &Body) {
    for (const StmtPtr &S : Body) {
      if (S->Value)
        expr(S->Value);
      if (S->K == Stmt::Kind::Store)
        Stored.insert(S->BufferId);
      if (S->K == Stmt::Kind::AssignVar)
        Assigned.insert(S->VarId);
      if (S->K == Stmt::Kind::Loop)
        NestedGrid |= S->LK != LoopKind::Seq;
      stmts(S->Body);
    }
  }
};

//===----------------------------------------------------------------------===//
// Step 1: fill forwarding
//===----------------------------------------------------------------------===//

/// A tile fill: lcl[sum_k Strides[k] * Vars[k]] = id(Value) over the
/// box Vars[k] in [0, Counts[k]), row-major.
struct Fill {
  std::vector<AExpr> Vars;
  std::vector<std::int64_t> Counts;
  KExprPtr Value;
};

/// Parses \p S as a tile fill: a perfect nest of constant-count Lcl
/// loops around one store to a local buffer of exactly the box, at its
/// row-major flat index, of a value that reads global memory only (a
/// load, or a constant-pad Select over one), plain or through the
/// identity (buildLocalCopy in rewrite/Lowering.cpp).
std::optional<std::pair<int, Fill>> parseFill(const ocl::Kernel &K,
                                              const StmtPtr &S) {
  Fill F;
  StmtPtr Cur = S;
  while (isLoop(Cur, LoopKind::Lcl)) {
    if (Cur->Count->getKind() != ArithExpr::Kind::Cst ||
        Cur->Count->getCst() < 1 || Cur->Body.size() != 1)
      return std::nullopt;
    F.Vars.push_back(Cur->LoopVar);
    F.Counts.push_back(Cur->Count->getCst());
    Cur = Cur->Body[0];
  }
  if (F.Vars.empty() || Cur->K != Stmt::Kind::Store ||
      K.buffer(Cur->BufferId).Space != ocl::MemSpace::Local)
    return std::nullopt;
  AExpr Flat = cst(0);
  std::int64_t Stride = 1;
  for (std::size_t I = F.Vars.size(); I-- > 0;) {
    Flat = add(Flat, mul(cst(Stride), F.Vars[I]));
    Stride *= F.Counts[I];
  }
  if (!exprEquals(Cur->Index, Flat) ||
      !K.buffer(Cur->BufferId).NumElems->isCst(Stride))
    return std::nullopt;
  F.Value = Cur->Value;
  if (F.Value->K == KExpr::Kind::CallUF && F.Value->Args.size() == 1 &&
      (F.Value->UF == ir::ufIdFloat() || F.Value->UF == ir::ufIdInt()))
    F.Value = F.Value->Args[0];
  Uses U;
  U.expr(F.Value);
  if (!U.RegsLocal)
    return std::nullopt;
  for (int B : U.Loaded)
    if (K.buffer(B).Space != ocl::MemSpace::Global)
      return std::nullopt;
  return std::make_pair(Cur->BufferId, std::move(F));
}

/// Rewrites every local-buffer read of a compute nest into the value its
/// fill copied there. Ok turns false when the nest touches local memory
/// any other way. Coordinates that keep a floor or mod of a local loop
/// variable are still exact; the fold then finds no tile offset to
/// cancel and leaves the nest tiled.
struct Forwarder {
  const ocl::Kernel &K;
  const std::unordered_map<int, Fill> &Fills;
  bool Ok = true;

  KExprPtr forward(const Fill &Fl, const AExpr &R, const Facts &F) {
    Subst Coords;
    std::int64_t Stride = 1;
    for (std::size_t I = Fl.Vars.size(); I-- > 0;) {
      AExpr C = floorDiv(R, cst(Stride));
      if (I != 0)
        C = floorMod(C, cst(Fl.Counts[I]));
      C = simplifyWithFacts(C, F);
      Coords.emplace(Fl.Vars[I]->getVarId(), std::move(C));
      Stride *= Fl.Counts[I];
    }
    return mapExpr(Fl.Value,
                   [&](const AExpr &E) { return substitute(E, Coords); });
  }

  KExprPtr expr(const KExprPtr &E, const Facts &F) {
    switch (E->K) {
    case KExpr::Kind::Load: {
      if (K.buffer(E->BufferId).Space == ocl::MemSpace::Global)
        return E;
      auto It = Fills.find(E->BufferId);
      if (It == Fills.end()) {
        Ok = false;
        return E;
      }
      return forward(It->second, E->Index, F);
    }
    case KExpr::Kind::CallUF: {
      std::vector<KExprPtr> Args;
      Args.reserve(E->Args.size());
      for (const KExprPtr &A : E->Args)
        Args.push_back(expr(A, F));
      return ocl::kCallUF(E->UF, std::move(Args));
    }
    case KExpr::Kind::Select:
      return ocl::kSelect(E->Checks, expr(E->Then, F), expr(E->Else, F));
    default:
      return E;
    }
  }

  StmtPtr stmt(const StmtPtr &S, const Facts &F) {
    switch (S->K) {
    case Stmt::Kind::Store:
      Ok &= K.buffer(S->BufferId).Space == ocl::MemSpace::Global;
      return ocl::sStore(S->BufferId, S->Index, expr(S->Value, F));
    case Stmt::Kind::AssignVar:
      return ocl::sAssign(S->VarId, expr(S->Value, F));
    case Stmt::Kind::Barrier:
      Ok = false;
      return S;
    case Stmt::Kind::Loop: {
      Facts Inner = F.withLoopVar(S->LoopVar, S->Count);
      std::vector<StmtPtr> Body;
      Body.reserve(S->Body.size());
      for (const StmtPtr &B : S->Body)
        Body.push_back(stmt(B, Inner));
      return ocl::sLoop(S->LK, S->Dim, S->LoopVar, S->Count, std::move(Body),
                        S->Unroll, S->Simd);
    }
    }
    return S;
  }
};

//===----------------------------------------------------------------------===//
// Steps 2 and 3: collapsing and folding
//===----------------------------------------------------------------------===//

/// The innermost local loop \p L of a coarsened tile, whose body is one
/// Seq loop s of c iterations that the body uses only as c * l + s,
/// collapsed into one local loop; \p L itself otherwise.
StmtPtr collapseCoarsened(const StmtPtr &L) {
  if (L->Body.size() != 1 || !isLoop(L->Body[0], LoopKind::Seq))
    return L;
  const StmtPtr &S = L->Body[0];
  if (L->Count->getKind() != ArithExpr::Kind::Cst ||
      S->Count->getKind() != ArithExpr::Kind::Cst)
    return L;
  std::int64_t N = L->Count->getCst() * S->Count->getCst();
  AExpr V = var(L->LoopVar->getVarName(), Range(0, N - 1));
  std::vector<StmtPtr> Body = substituteStmts(
      S->Body,
      {{S->LoopVar->getVarId(), sub(V, mul(S->Count, L->LoopVar))}});
  if (mentions(Body, L->LoopVar->getVarId()))
    return L;
  return ocl::sLoop(LoopKind::Lcl, L->Dim, V, cst(N), std::move(Body));
}

/// The tile offsets min(A, T * w) among the index expressions of
/// \p Body, each once, whose A depends on the kernel's size arguments
/// only (the folded loop runs to A + T).
std::vector<AExpr> clampedOffsets(const ocl::Kernel &K,
                                  const std::vector<StmtPtr> &Body,
                                  const AExpr &W) {
  std::vector<AExpr> Out;
  std::function<void(const AExpr &)> Scan = [&](const AExpr &E) {
    if (E->getKind() == ArithExpr::Kind::Min) {
      for (int I = 0; I != 2; ++I) {
        const AExpr &Step = E->getOperands()[std::size_t(I)];
        const AExpr &A = E->getOperands()[std::size_t(1 - I)];
        bool Scaled = exprEquals(Step, W) ||
                      (Step->getKind() == ArithExpr::Kind::Mul &&
                       Step->getOperands().size() == 2 &&
                       Step->getOperands()[0]->getKind() ==
                           ArithExpr::Kind::Cst &&
                       exprEquals(Step->getOperands()[1], W));
        std::vector<unsigned> Vars;
        collectVars(A, Vars);
        bool SizesOnly = std::all_of(Vars.begin(), Vars.end(), [&](unsigned V) {
          return std::any_of(K.SizeArgs.begin(), K.SizeArgs.end(),
                             [&](const auto &Arg) { return Arg.first == V; });
        });
        if (Scaled && SizesOnly &&
            std::find_if(Out.begin(), Out.end(), [&](const AExpr &O) {
              return exprEquals(O, E);
            }) == Out.end())
          Out.push_back(E);
      }
    }
    for (const AExpr &Op : E->getOperands())
      Scan(Op);
  };
  visitStmts(Body, Scan);
  return Out;
}

struct Folder {
  ocl::Kernel &K;
  SpecStats &Stats;
  Facts Launch;
  std::unordered_map<int, unsigned> Writers; ///< stores per buffer id

  /// One folded dimension: a grid loop of Count iterations over Var.
  struct GridDim {
    AExpr Var;
    AExpr Count;
  };

  /// The grid extent the tiles of work-group loop \p W cover when its
  /// local loop runs \p C iterations from offset \p O; null unless they
  /// cover [0, extent) exactly.
  AExpr coveredExtent(const AExpr &O, std::int64_t C, const StmtPtr &W) {
    if (!provablyLEThorough(cst(1), W->Count, Launch))
      return nullptr;
    if (O->getKind() != ArithExpr::Kind::Min)
      return mul(cst(C), W->Count); // O == C * w: tiles that divide the axis
    // min(A, T * w): tiles start 0, T, 2T, ... and the last at A, so
    // they leave no gap when T <= C and reach A when T * (W - 1) >= A.
    const auto &Ops = O->getOperands();
    bool StepFirst = false;
    {
      std::vector<unsigned> Vars;
      collectVars(Ops[0], Vars);
      StepFirst = std::find(Vars.begin(), Vars.end(),
                            W->LoopVar->getVarId()) != Vars.end();
    }
    const AExpr &Step = Ops[StepFirst ? 0 : 1];
    const AExpr &A = Ops[StepFirst ? 1 : 0];
    std::int64_t T =
        Step->getKind() == ArithExpr::Kind::Mul ? Step->getOperands()[0]->getCst()
                                                : 1;
    if (T < 1 || T > C || !provablyLEThorough(cst(0), A, Launch) ||
        !provablyLEThorough(A, mul(cst(T), sub(W->Count, cst(1))), Launch))
      return nullptr;
    return add(A, cst(C));
  }

  /// Folds work-group loop \p W and local loop \p L of one dimension in
  /// \p Body (rewritten in place) into one grid loop.
  std::optional<GridDim> foldPair(const StmtPtr &W, const StmtPtr &L,
                                  std::vector<StmtPtr> &Body) {
    if (L->Count->getKind() != ArithExpr::Kind::Cst)
      return std::nullopt;
    std::int64_t C = L->Count->getCst();
    unsigned WId = W->LoopVar->getVarId(), LId = L->LoopVar->getVarId();
    Range JR;
    JR.Min = 0;
    AExpr J = var(W->LoopVar->getVarName(), JR);
    if (!mentions(Body, WId)) {
      // Every tile computes the same C outputs.
      if (!provablyLEThorough(cst(1), W->Count, Launch))
        return std::nullopt;
      Body = substituteStmts(Body, {{LId, J}});
      return GridDim{J, L->Count};
    }
    std::vector<AExpr> Offsets = clampedOffsets(K, Body, W->LoopVar);
    Offsets.push_back(mul(cst(C), W->LoopVar));
    for (const AExpr &O : Offsets) {
      std::vector<StmtPtr> Folded = substituteStmts(Body, {{LId, sub(J, O)}});
      if (mentions(Folded, WId))
        continue;
      AExpr N = coveredExtent(O, C, W);
      if (!N)
        continue;
      Body = std::move(Folded);
      return GridDim{J, N};
    }
    return std::nullopt;
  }

  /// The grid nest the tiled nest rooted at work-group loop \p Root
  /// tiles, or null when it does not fold.
  StmtPtr foldNest(const StmtPtr &Root) {
    std::vector<StmtPtr> Wrgs{Root};
    while (Wrgs.back()->Body.size() == 1 &&
           isLoop(Wrgs.back()->Body[0], LoopKind::Wrg))
      Wrgs.push_back(Wrgs.back()->Body[0]);
    Facts F;
    for (const StmtPtr &W : Wrgs)
      F = F.withLoopVar(W->LoopVar, W->Count);

    // Step 1: fills, then one compute nest.
    std::unordered_map<int, Fill> Fills;
    std::vector<StmtPtr> Compute;
    for (const StmtPtr &S : Wrgs.back()->Body) {
      if (S->K == Stmt::Kind::Barrier)
        continue;
      if (auto P = parseFill(K, S); P && Compute.empty()) {
        if (Writers[P->first] != 1 || !Fills.emplace(*P).second)
          return nullptr;
        continue;
      }
      Compute.push_back(S);
    }
    if (Compute.size() != 1)
      return nullptr;
    Forwarder Fw{K, Fills};
    StmtPtr Nest = Fw.stmt(Compute.front(), F);
    if (!Fw.Ok)
      return nullptr;

    // Step 2: the local loop chain, one loop per work-group loop.
    std::vector<StmtPtr> Lcls;
    if (isLoop(Nest, LoopKind::Lcl))
      Lcls.push_back(Nest);
    while (!Lcls.empty() && Lcls.back()->Body.size() == 1 &&
           isLoop(Lcls.back()->Body[0], LoopKind::Lcl))
      Lcls.push_back(Lcls.back()->Body[0]);
    if (Lcls.size() != Wrgs.size())
      return nullptr;
    Lcls.back() = collapseCoarsened(Lcls.back());
    std::vector<StmtPtr> Body = Lcls.back()->Body;
    Uses U;
    U.stmts(Body);
    if (U.NestedGrid || !U.RegsLocal)
      return nullptr;
    for (int B : U.Stored)
      if (U.Loaded.count(B) || K.buffer(B).Space != ocl::MemSpace::Global)
        return nullptr;

    // Step 3: fold each dimension's pair, outermost first.
    std::vector<GridDim> Grid;
    for (const StmtPtr &W : Wrgs) {
      auto L = std::find_if(Lcls.begin(), Lcls.end(), [&](const StmtPtr &X) {
        return X->Dim == W->Dim;
      });
      if (L == Lcls.end())
        return nullptr;
      std::optional<GridDim> G = foldPair(W, *L, Body);
      if (!G)
        return nullptr;
      Grid.push_back(std::move(*G));
      Lcls.erase(L);
    }
    for (std::size_t I = Wrgs.size(); I-- > 0;)
      Body = {ocl::sLoop(LoopKind::Glb, Wrgs[I]->Dim, Grid[I].Var,
                         Grid[I].Count, std::move(Body))};
    return Body.front();
  }

  std::vector<StmtPtr> body(const std::vector<StmtPtr> &In) {
    std::vector<StmtPtr> Out;
    Out.reserve(In.size());
    for (const StmtPtr &S : In) {
      if (isLoop(S, LoopKind::Wrg)) {
        StmtPtr Folded = foldNest(S);
        ++(Folded ? Stats.TilesFolded : Stats.TilesUnfolded);
        Out.push_back(Folded ? Folded : S);
      } else if (S->K == Stmt::Kind::Loop) {
        std::vector<StmtPtr> B = body(S->Body);
        bool Same = std::equal(B.begin(), B.end(), S->Body.begin());
        Out.push_back(Same ? S
                           : ocl::sLoop(S->LK, S->Dim, S->LoopVar, S->Count,
                                        std::move(B), S->Unroll, S->Simd));
      } else {
        Out.push_back(S);
      }
    }
    return Out;
  }
};

void countWriters(const std::vector<StmtPtr> &Body,
                  std::unordered_map<int, unsigned> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->K == Stmt::Kind::Store)
      ++Out[S->BufferId];
    countWriters(S->Body, Out);
  }
}

/// Drops the non-global buffers nothing references any more, keeping
/// every global buffer's id: runners bind global buffers by the ids of
/// the unspecialized kernel. Keeps them all when that is impossible.
void dropDeadBuffers(ocl::Kernel &K) {
  Uses U;
  U.stmts(K.Body);
  std::vector<int> NewId(K.Buffers.size(), -1);
  int Next = 0;
  for (const ocl::BufferDecl &B : K.Buffers) {
    bool Live = B.Space == ocl::MemSpace::Global || U.Loaded.count(B.Id) ||
                U.Stored.count(B.Id);
    if (!Live)
      continue;
    if (B.Space == ocl::MemSpace::Global && Next != B.Id)
      return;
    NewId[std::size_t(B.Id)] = Next++;
  }
  if (Next == int(K.Buffers.size()))
    return;
  std::vector<ocl::BufferDecl> Kept;
  for (ocl::BufferDecl &B : K.Buffers)
    if (NewId[std::size_t(B.Id)] >= 0) {
      B.Id = NewId[std::size_t(B.Id)];
      Kept.push_back(std::move(B));
    }
  K.Buffers = std::move(Kept);
  K.Body = mapStmts(
      K.Body, [](const AExpr &E) { return E; }, &NewId);
}

} // namespace

ocl::Kernel foldTiles(const ocl::Kernel &K, SpecStats *Stats) {
  ocl::Kernel Out = K;
  SpecStats Local;
  Folder F{Out, Stats ? *Stats : Local, launchFacts(K), {}};
  countWriters(K.Body, F.Writers);
  unsigned Before = F.Stats.TilesFolded;
  Out.Body = F.body(K.Body);
  if (F.Stats.TilesFolded != Before)
    dropDeadBuffers(Out);
  return Out;
}

} // namespace analysis
} // namespace lift
