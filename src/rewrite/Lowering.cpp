//===- Lowering.cpp - High-level to OpenCL-level lowering ---------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "rewrite/Lowering.h"

#include "ir/TypeInference.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "stencil/StencilOps.h"
#include "support/Support.h"

#include <cassert>

using namespace lift;
using namespace lift::ir;
using namespace lift::rewrite;
using lift::stencil::mapAtDepth;
using lift::stencil::slideClampNd;
using lift::stencil::slideNd;

std::string LoweringOptions::describe() const {
  std::string S;
  if (Tile) {
    S = "tiled" + std::to_string(TileOutputs);
    if (UseLocalMem)
      S += "-local";
    if (TileCoarsen > 1)
      S += "-coarsen" + std::to_string(TileCoarsen);
  } else {
    S = "global";
    if (Coarsen > 1)
      S += "-coarsen" + std::to_string(Coarsen);
  }
  if (UnrollReduce)
    S += "-unroll";
  return S;
}

namespace {

LambdaPtr cloneLambda(const LambdaPtr &F) {
  return std::static_pointer_cast<LambdaExpr>(
      deepClone(std::static_pointer_cast<Expr>(F)));
}

/// Builds an n-deep nest of the given map primitive over \p In,
/// applying \p F at the innermost level. Depth d maps to OpenCL
/// dimension n-1-d so the innermost (contiguous) array dimension rides
/// on id dimension 0 for coalescing. \p InnerCoarsen > 1 makes each
/// innermost-dimension thread compute several points sequentially.
ExprPtr buildMapNest(unsigned N, Prim MapKind, const LambdaPtr &F,
                     ExprPtr In, std::int64_t InnerCoarsen = 1,
                     unsigned Depth = 0) {
  int Dim = int(N - 1 - Depth);
  assert(Dim >= 0 && Dim < 3 && "stencils are at most 3D");
  if (Depth == N - 1) {
    if (InnerCoarsen > 1) {
      LambdaPtr PerChunk = lam("chunk", [&](ExprPtr Chunk) {
        return mapSeq(cloneLambda(F), Chunk);
      });
      return join(makeMapLike(MapKind, Dim, PerChunk,
                              split(cst(InnerCoarsen), std::move(In))));
    }
    return makeMapLike(MapKind, Dim, F, std::move(In));
  }
  LambdaPtr Level = lam("lvl" + std::to_string(Depth), [&](ExprPtr X) {
    return buildMapNest(N, MapKind, F, std::move(X), InnerCoarsen,
                        Depth + 1);
  });
  return makeMapLike(MapKind, Dim, Level, std::move(In));
}

/// Innermost-dimension thread coarsening:
/// join(mapGlb(0, chunk => mapSeq(f, chunk), split(c, in))).
ExprPtr buildCoarsenedInner(const LambdaPtr &F, ExprPtr In,
                            std::int64_t Coarsen) {
  LambdaPtr PerChunk = lam("chunk", [&](ExprPtr Chunk) {
    return mapSeq(cloneLambda(F), Chunk);
  });
  return join(mapGlb(0, PerChunk, split(cst(Coarsen), std::move(In))));
}

/// Untiled lowering of an n-dim map nest onto global ids, optionally
/// coarsened along the innermost dimension.
ExprPtr buildGlbNest(unsigned N, const LambdaPtr &F, ExprPtr In,
                     std::int64_t Coarsen, unsigned Depth = 0) {
  if (Depth == N - 1) {
    if (Coarsen > 1)
      return buildCoarsenedInner(F, std::move(In), Coarsen);
    return mapGlb(0, F, std::move(In));
  }
  int Dim = int(N - 1 - Depth);
  LambdaPtr Level = lam("lvl" + std::to_string(Depth), [&](ExprPtr X) {
    return buildGlbNest(N, F, std::move(X), Coarsen, Depth + 1);
  });
  return makeMapLike(Prim::MapGlb, Dim, Level, std::move(In));
}

/// A cooperative copy of an n-dim tile into local memory: nested mapLcl
/// loops of the identity with the outermost lambda marked toLocal.
ExprPtr buildLocalCopy(unsigned N, ExprPtr Tile, unsigned Depth = 0) {
  int Dim = int(N - 1 - Depth);
  if (Depth == N - 1) {
    LambdaPtr Id = etaLambda(ufIdFloat());
    if (Depth == 0)
      Id = toLocal(Id);
    return mapLcl(Dim, Id, std::move(Tile));
  }
  LambdaPtr Level = lam("cpy" + std::to_string(Depth), [&](ExprPtr X) {
    return buildLocalCopy(N, std::move(X), Depth + 1);
  });
  if (Depth == 0)
    Level = toLocal(Level);
  return makeMapLike(Prim::MapLcl, Dim, Level, std::move(Tile));
}

/// Merges a tiled result of shape [t0]..[t_{n-1}][v0]..[v_{n-1}] back
/// into the flat n-dim grid [t0*v0]..: the multi-dimensional inverse of
/// the tiling rule's join (paper §4.1, Figure 6). Interleaves tile and
/// intra-tile dimensions with transposes, then joins each pair.
///
/// When \p OutExt is non-empty the tile grid is ragged (clamped tiling:
/// the last tile per dimension overlaps its neighbor) and dimension I
/// is reassembled with joinClamp(OutExt[I]) instead of a plain join.
ExprPtr untileNd(unsigned N, ExprPtr E,
                 const std::vector<AExpr> &OutExt = {}) {
  assert((OutExt.empty() || OutExt.size() == N) &&
         "one output extent per dimension when clamping");
  auto JoinDim = [&](unsigned I, ExprPtr X) {
    if (!OutExt.empty())
      return joinClamp(OutExt[I], std::move(X));
    return join(std::move(X));
  };
  if (N == 1)
    return JoinDim(0, std::move(E));
  // Track dimension order: 0..N-1 are tile-grid dims, N..2N-1 are
  // intra-tile dims. Bring each vi right after ti by adjacent swaps.
  std::vector<unsigned> Order;
  for (unsigned I = 0; I != 2 * N; ++I)
    Order.push_back(I);
  for (unsigned I = 0; I != N; ++I) {
    unsigned Target = 2 * I + 1;
    unsigned Pos = 0;
    while (Order[Pos] != N + I)
      ++Pos;
    while (Pos > Target) {
      // Swap positions Pos-1 and Pos == transpose at depth Pos-1.
      E = mapAtDepth(
          Pos - 1, [](ExprPtr X) { return transpose(std::move(X)); }, E);
      std::swap(Order[Pos - 1], Order[Pos]);
      --Pos;
    }
  }
  // Join each (ti, vi) pair; after joining pair i, it occupies one
  // dimension at depth i.
  for (unsigned I = 0; I != N; ++I)
    E = mapAtDepth(I, [&](ExprPtr X) { return JoinDim(I, std::move(X)); },
                   E);
  return E;
}

/// Rebuilds a call with new arguments, copying payload fields.
ExprPtr rebuildCallArgs(const CallExpr &C, std::vector<ExprPtr> Args) {
  auto NC = std::make_shared<CallExpr>(C.getPrim(), std::move(Args));
  NC->UF = C.UF;
  NC->Dim = C.Dim;
  NC->Factor = C.Factor;
  NC->Size = C.Size;
  NC->Step = C.Step;
  NC->PadL = C.PadL;
  NC->PadR = C.PadR;
  NC->Bdy = C.Bdy;
  NC->Index = C.Index;
  NC->IterCount = C.IterCount;
  NC->GenSizes = C.GenSizes;
  return NC;
}

/// Replaces embedded high-level compute map nests (e.g. the inner
/// applications produced by expanding `iterate`) with untiled lowered
/// nests. The code generator then materializes each lowered phase into
/// a global temporary read by the next phase — the multi-phase
/// execution the paper's `iterate` implies (§3.1).
ExprPtr lowerEmbeddedNests(const ExprPtr &E) {
  if (E->getKind() == Expr::Kind::Lambda) {
    const auto *L = dynCast<LambdaExpr>(E);
    ExprPtr NewBody = lowerEmbeddedNests(L->getBody());
    if (NewBody.get() == L->getBody().get())
      return E;
    return lambda(L->getParams(), std::move(NewBody), L->getAddrSpace());
  }
  const auto *C = dynCast<CallExpr>(E);
  if (!C)
    return E;

  // An embedded high-level compute map nest: lower it (untiled).
  if (C->getPrim() == Prim::Map) {
    const auto F = std::static_pointer_cast<LambdaExpr>(C->getArgs()[0]);
    if (!isLayoutOnly(F->getBody())) {
      std::optional<MapNdMatch> M = matchMapNd(E);
      if (M && M->Dims <= 3) {
        ExprPtr Input = lowerEmbeddedNests(M->Input);
        return buildGlbNest(M->Dims, M->F, Input, /*Coarsen=*/1);
      }
    }
  }

  std::vector<ExprPtr> NewArgs;
  bool Changed = false;
  for (const ExprPtr &A : C->getArgs()) {
    ExprPtr NA = lowerEmbeddedNests(A);
    Changed |= NA.get() != A.get();
    NewArgs.push_back(std::move(NA));
  }
  if (!Changed)
    return E;
  return rebuildCallArgs(*C, std::move(NewArgs));
}

/// Records \p Reason for the caller (when requested) and returns the
/// null program, so every bail-out site carries a diagnostic.
Program lowerFail(std::string *WhyNot, const std::string &Reason) {
  if (WhyNot)
    *WhyNot = Reason;
  return nullptr;
}

/// Decides between the clamped (remainder-legal) and exact tiling
/// schemes and validates the tile shape against the per-dimension
/// output extents. Returns true when the clamped scheme applies: at
/// window step 1 every (extent, tile) combination is legal -- tails
/// that do not fill a tile get a shifted full-width tile, and a
/// concrete dimension *shorter* than the tile gets one full-width
/// tile covering it (the caller clamps the per-dimension tile to
/// min(k, extent)). Writes a diagnostic to \p Err only for genuinely
/// unsupported shapes: a remainder fit at window step != 1, whose
/// shifted tail tile would leave the output lattice (deferred).
bool checkTileFit(unsigned N, std::int64_t TileOutputs, const AExpr &Step,
                  const std::vector<AExpr> &OutExt, std::string *Err) {
  bool StepOne =
      Step->getKind() == ArithExpr::Kind::Cst && Step->getCst() == 1;
  if (StepOne)
    return true;
  if (Step->getKind() != ArithExpr::Kind::Cst)
    return false; // symbolic step: keep the exact-fit scheme as-is
  std::int64_t St = Step->getCst();
  if (St <= 0 || TileOutputs % St != 0) {
    *Err = "tile advance " + std::to_string(TileOutputs) +
           " is misaligned with window step " + std::to_string(St);
    return false;
  }
  std::int64_t K = TileOutputs / St;
  for (unsigned I = 0; I != N; ++I) {
    if (OutExt[I]->getKind() != ArithExpr::Kind::Cst)
      continue;
    std::int64_t MDim = OutExt[I]->getCst();
    if (MDim < K || MDim % K != 0) {
      *Err = "tile-indivisible: remainder tiles at window step != 1 are "
             "unsupported (extent " +
             std::to_string(MDim) + ", tile of " + std::to_string(K) +
             " outputs)";
      return false;
    }
  }
  return false;
}

/// Per-dimension tile advance for the clamped scheme: the requested
/// k, clamped to the output extent where the extent is concrete and
/// smaller (that dimension gets exactly one full-width tile). A
/// symbolic extent keeps k -- the lowering's validity precondition
/// extent >= k applies.
std::vector<AExpr> clampTileSteps(unsigned N, const AExpr &V,
                                  std::int64_t TileOutputs,
                                  const std::vector<AExpr> &OutExt) {
  std::vector<AExpr> Steps;
  for (unsigned I = 0; I != N; ++I) {
    if (OutExt[I]->getKind() == ArithExpr::Kind::Cst &&
        OutExt[I]->getCst() < TileOutputs)
      Steps.push_back(OutExt[I]);
    else
      Steps.push_back(V);
  }
  return Steps;
}

/// The actual lowering; the public entry point wraps it with a trace
/// span and success/failure counters.
Program lowerStencilImpl(const Program &P, const LoweringOptions &O,
                         std::string *WhyNot) {
  Program Copy = cloneProgram(P);

  // Expand any iterate into repeated application first.
  int Dummy = 0;
  ExprPtr Body = applyEverywhere(iterateExpandRule(), Copy->getBody(), Dummy);

  std::optional<MapNdMatch> M = matchMapNd(Body);
  if (!M)
    return lowerFail(WhyNot, "program is not a mapNd nest over its input");
  if (M->Dims > 3)
    return lowerFail(WhyNot, "mapNd nests beyond 3 dimensions are unsupported (got " +
                                 std::to_string(M->Dims) + ")");
  unsigned N = M->Dims;

  // Inner stencil phases (from iterate expansion or explicit chains)
  // become lowered nests materialized into global temporaries.
  M->Input = lowerEmbeddedNests(M->Input);

  ExprPtr Lowered;
  if (O.Tile) {
    AExpr V = cst(O.TileOutputs);

    // Per-dimension output extents (outermost first). The clamped
    // tiling scheme's joins need them, and they carry the validity
    // checks below. Typing a throwaway program annotates Body.
    {
      Program Typed = makeProgram(Copy->getParams(), Body);
      std::string TypeErr;
      if (!tryInferTypes(Typed, &TypeErr))
        return lowerFail(WhyNot, "cannot type the stencil body: " + TypeErr);
    }
    std::vector<AExpr> OutExt;
    {
      TypePtr T = Body->getType();
      for (unsigned I = 0; I != N; ++I) {
        if (!T || T->getKind() != Type::Kind::Array)
          return lowerFail(WhyNot, "stencil output is not an n-d array");
        OutExt.push_back(T->getSize());
        T = T->getElem();
      }
    }
    // Caller-supplied concrete extents refine symbolic dimensions so
    // the per-dimension tile clamp knows the real grid. The caller
    // promises to run the lowered program at exactly these output
    // extents. The ragged reassembly keeps the symbolic extents: its
    // tile offset min(m - k, k * t) is then the one the input tiles
    // use, min(n - u, k * t) with n - u == m - k, so every access of a
    // tile names its offset in one form.
    std::vector<AExpr> JoinExt = OutExt;
    if (!O.OutputExtents.empty()) {
      if (O.OutputExtents.size() != N)
        return lowerFail(WhyNot,
                         "OutputExtents has " +
                             std::to_string(O.OutputExtents.size()) +
                             " entries for a " + std::to_string(N) +
                             "-d stencil");
      for (unsigned I = 0; I != N; ++I)
        if (OutExt[I]->getKind() != ArithExpr::Kind::Cst)
          OutExt[I] = cst(O.OutputExtents[I]);
    }

    // Single-grid shape: mapNd(f, slideNd(size, step, inner)).
    if (std::optional<SlideNdMatch> S = matchSlideNd(M->Input)) {
      if (S->Dims != N)
        return lowerFail(WhyNot,
                         "slideNd dimensionality does not match the mapNd nest");
      // Tile extent u = v + (size - step), the §4.1 validity constraint.
      AExpr U = add(V, sub(S->Size, S->Step));
      std::string TileErr;
      bool Clamp =
          checkTileFit(N, O.TileOutputs, S->Step, OutExt, &TileErr);
      if (!TileErr.empty())
        return lowerFail(WhyNot, TileErr);
      ExprPtr Tiles;
      if (Clamp) {
        // Per-dimension tile advance (clamped to short extents) with
        // the matching per-dimension window extent u_d = k_d + size-1.
        std::vector<AExpr> VSteps =
            clampTileSteps(N, V, O.TileOutputs, OutExt);
        std::vector<AExpr> USizes;
        for (unsigned I = 0; I != N; ++I)
          USizes.push_back(add(VSteps[I], sub(S->Size, S->Step)));
        Tiles = slideClampNd(N, USizes, VSteps, S->Inner);
      } else {
        Tiles = slideNd(N, U, V, S->Inner);
      }

      LambdaPtr F = M->F;
      auto SizeE = S->Size;
      auto StepE = S->Step;
      bool Local = O.UseLocalMem;
      std::int64_t TC = O.TileCoarsen;
      LambdaPtr PerTile = lam("tile", [&](ExprPtr Tile) {
        ExprPtr Staged = Local ? buildLocalCopy(N, Tile) : Tile;
        return buildMapNest(N, Prim::MapLcl, cloneLambda(F),
                            slideNd(N, SizeE, StepE, std::move(Staged)),
                            TC);
      });
      Lowered = untileNd(N, buildMapNest(N, Prim::MapWrg, PerTile, Tiles),
                         Clamp ? JoinExt : std::vector<AExpr>{});
    } else if (std::optional<ZipNdMatch> Z = matchZipNd(M->Input, N)) {
      // Multi-grid shape: mapNd(f, zipNd(comps)). Components that are
      // themselves slideNd neighborhoods get overlapping tiles of
      // extent u (optionally staged in local memory); point-wise
      // components get tiles of k = v/step outputs. The per-tile zips
      // line up because both produce k^n outputs per tile, and under
      // the clamped scheme both tail starts shift by the same amount
      // (input clamp n-u == step * output clamp m-k).
      std::vector<std::optional<SlideNdMatch>> CompMatches;
      AExpr SizeE, StepE;
      for (const ExprPtr &Comp : Z->Comps) {
        std::optional<SlideNdMatch> CS = matchSlideNd(Comp);
        if (CS) {
          if (CS->Dims != N)
            return lowerFail(
                WhyNot, "zip component slideNd dimensionality does not match "
                        "the mapNd nest");
          if (SizeE && (!exprEquals(SizeE, CS->Size) ||
                        !exprEquals(StepE, CS->Step)))
            return lowerFail(
                WhyNot,
                "mixed window geometries are unsupported: slide(" +
                    SizeE->toString() + ", " + StepE->toString() +
                    ") vs slide(" + CS->Size->toString() + ", " +
                    CS->Step->toString() + ")");
          SizeE = CS->Size;
          StepE = CS->Step;
        }
        CompMatches.push_back(std::move(CS));
      }
      if (!SizeE)
        return lowerFail(WhyNot,
                         "tiling requested but no zip component is a slideNd "
                         "neighborhood: nothing to tile");

      std::string TileErr;
      bool Clamp = checkTileFit(N, O.TileOutputs, StepE, OutExt, &TileErr);
      if (!TileErr.empty())
        return lowerFail(WhyNot, TileErr);
      // Point-wise components advance on the output lattice.
      AExpr K = V;
      if (StepE->getKind() == ArithExpr::Kind::Cst &&
          StepE->getCst() > 0 && O.TileOutputs % StepE->getCst() == 0)
        K = cst(O.TileOutputs / StepE->getCst());
      // Clamped scheme (window step 1, so K == V): per-dimension tile
      // advance, clamped to short extents; both component kinds shift
      // their tails by the same amount (input clamp n-u equals the
      // output clamp m-k), so the per-tile zips stay aligned.
      std::vector<AExpr> VSteps =
          Clamp ? clampTileSteps(N, V, O.TileOutputs, OutExt)
                : std::vector<AExpr>{};

      std::vector<bool> IsSlided;
      std::vector<ExprPtr> TiledComps;
      for (std::size_t I = 0, E2 = Z->Comps.size(); I != E2; ++I) {
        if (CompMatches[I]) {
          AExpr U = add(V, sub(SizeE, StepE));
          if (Clamp) {
            std::vector<AExpr> USizes;
            for (unsigned D = 0; D != N; ++D)
              USizes.push_back(add(VSteps[D], sub(SizeE, StepE)));
            TiledComps.push_back(
                slideClampNd(N, USizes, VSteps, CompMatches[I]->Inner));
          } else {
            TiledComps.push_back(slideNd(N, U, V, CompMatches[I]->Inner));
          }
          IsSlided.push_back(true);
          continue;
        }
        TiledComps.push_back(Clamp
                                 ? slideClampNd(N, VSteps, VSteps,
                                                Z->Comps[I])
                                 : slideNd(N, K, K, Z->Comps[I]));
        IsSlided.push_back(false);
      }

      LambdaPtr F = M->F;
      bool Local = O.UseLocalMem;
      std::int64_t TC = O.TileCoarsen;
      LambdaPtr PerTile = lam("tile", [&](ExprPtr Tile) {
        std::vector<ExprPtr> Parts;
        for (std::size_t I = 0, E2 = IsSlided.size(); I != E2; ++I) {
          ExprPtr Part = get(int(I), Tile);
          if (IsSlided[I]) {
            if (Local)
              Part = buildLocalCopy(N, std::move(Part));
            Part = slideNd(N, SizeE, StepE, std::move(Part));
          }
          Parts.push_back(std::move(Part));
        }
        return buildMapNest(N, Prim::MapLcl, cloneLambda(F),
                            lift::stencil::zipNd(N, std::move(Parts)), TC);
      });
      Lowered = untileNd(
          N,
          buildMapNest(N, Prim::MapWrg, PerTile,
                       lift::stencil::zipNd(N, std::move(TiledComps))),
          Clamp ? JoinExt : std::vector<AExpr>{});
    } else {
      return lowerFail(WhyNot,
                       "tiling requested but the input is neither a slideNd "
                       "neighborhood nor a zipNd of grids");
    }
  } else {
    Lowered = buildGlbNest(N, M->F, M->Input, O.Coarsen);
  }

  // Sequentialize all remaining high-level compute: reductions and any
  // compute maps inside the stencil function.
  Lowered = applyEverywhere(reduceToSeqRule(), Lowered, Dummy);
  Lowered = applyEverywhere(mapToSeqRule(), Lowered, Dummy);

  Program Result = makeProgram(Copy->getParams(), Lowered);
  inferTypes(Result);

  if (O.UnrollReduce) {
    int Unrolled = 0;
    ExprPtr NewBody =
        applyEverywhere(reduceUnrollRule(), Result->getBody(), Unrolled);
    Result = makeProgram(Result->getParams(), NewBody);
    inferTypes(Result);
  }
  return Result;
}

} // namespace

Program lift::rewrite::lowerStencil(const Program &P, const LoweringOptions &O,
                                    std::string *WhyNot) {
  obs::Span LowerSpan("lower", "rewrite");
  LowerSpan.arg("variant", O.describe());
  Program Result = lowerStencilImpl(P, O, WhyNot);
  obs::Registry &Reg = obs::Registry::global();
  if (Result)
    Reg.counter("rewrite.lowerings").inc();
  else
    Reg.counter("rewrite.lowerings_failed").inc();
  LowerSpan.arg("ok", std::int64_t(Result ? 1 : 0));
  return Result;
}
