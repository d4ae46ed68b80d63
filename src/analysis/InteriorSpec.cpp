//===- InteriorSpec.cpp - Interior/edge kernel specialization ------------===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"

#include "analysis/RangeAnalysis.h"

#include <unordered_map>
#include <unordered_set>

namespace lift {
namespace analysis {

namespace {

using ocl::KExpr;
using ocl::KExprPtr;
using ocl::Stmt;
using ocl::StmtPtr;

constexpr int MaxHalo = 4;

//===----------------------------------------------------------------------===//
// Subtree scans
//===----------------------------------------------------------------------===//

bool mentionsVar(const AExpr &E, unsigned Id) {
  if (!E)
    return false;
  std::vector<unsigned> Vars;
  collectVars(E, Vars);
  for (unsigned V : Vars)
    if (V == Id)
      return true;
  return false;
}

/// True when \p E contains a Min/Max/Mod node whose subtree mentions
/// variable \p Id — i.e. surviving boundary arithmetic on that loop.
bool hasBoundaryOpOn(const AExpr &E, unsigned Id) {
  if (!E)
    return false;
  switch (E->getKind()) {
  case ArithExpr::Kind::Min:
  case ArithExpr::Kind::Max:
  case ArithExpr::Kind::Mod:
    if (mentionsVar(E, Id))
      return true;
    break;
  default:
    break;
  }
  for (const AExpr &Op : E->getOperands())
    if (hasBoundaryOpOn(Op, Id))
      return true;
  return false;
}

/// Eligibility scan over one loop subtree: the split duplicates the
/// body into three clones, which is only safe when the body is a pure
/// per-iteration computation over global memory — no barriers, no
/// work-group/local-id loops, no local/private buffers, and every
/// register read after a write within the same subtree.
struct EligibilityScan {
  const ocl::Kernel &K;
  bool Ok = true;
  std::unordered_set<int> Assigned;
  std::unordered_map<int, unsigned> RegUses; ///< reg id -> occurrences

  void expr(const KExprPtr &E) {
    if (!E || !Ok)
      return;
    switch (E->K) {
    case KExpr::Kind::ConstScalar:
    case KExpr::Kind::IndexVal:
      return;
    case KExpr::Kind::ReadVar:
      ++RegUses[E->VarId];
      if (!Assigned.count(E->VarId))
        Ok = false; // value flows in from outside the subtree
      return;
    case KExpr::Kind::Load:
      if (K.buffer(E->BufferId).Space != ocl::MemSpace::Global)
        Ok = false;
      return;
    case KExpr::Kind::CallUF:
      for (const KExprPtr &A : E->Args)
        expr(A);
      return;
    case KExpr::Kind::Select:
      expr(E->Then);
      expr(E->Else);
      return;
    }
  }

  void stmt(const StmtPtr &S) {
    if (!Ok)
      return;
    switch (S->K) {
    case Stmt::Kind::Store:
      if (K.buffer(S->BufferId).Space != ocl::MemSpace::Global)
        Ok = false;
      expr(S->Value);
      return;
    case Stmt::Kind::AssignVar:
      expr(S->Value); // RHS reads happen before the write
      ++RegUses[S->VarId];
      Assigned.insert(S->VarId);
      return;
    case Stmt::Kind::Barrier:
      Ok = false;
      return;
    case Stmt::Kind::Loop:
      if (S->LK == ocl::LoopKind::Wrg || S->LK == ocl::LoopKind::Lcl) {
        Ok = false;
        return;
      }
      for (const StmtPtr &B : S->Body)
        stmt(B);
      return;
    }
  }
};

/// Counts register occurrences (reads + writes) under \p Body.
void countRegUses(const std::vector<StmtPtr> &Body,
                  std::unordered_map<int, unsigned> &Out) {
  struct Walk {
    std::unordered_map<int, unsigned> &Out;
    void expr(const KExprPtr &E) {
      if (!E)
        return;
      if (E->K == KExpr::Kind::ReadVar)
        ++Out[E->VarId];
      for (const KExprPtr &A : E->Args)
        expr(A);
      expr(E->Then);
      expr(E->Else);
    }
    void stmt(const StmtPtr &S) {
      if (S->K == Stmt::Kind::AssignVar)
        ++Out[S->VarId];
      expr(S->Value);
      for (const StmtPtr &B : S->Body)
        stmt(B);
    }
  } W{Out};
  for (const StmtPtr &S : Body)
    W.stmt(S);
}

//===----------------------------------------------------------------------===//
// Cloning with substitution / simplification / register remapping
//===----------------------------------------------------------------------===//

struct CloneCtx {
  const std::unordered_map<unsigned, AExpr> &Subst;
  const std::unordered_map<int, int> *RegMap = nullptr;
  bool Simplify = false; ///< interior mode: simplify + resolve Selects
  SpecStats *Stats = nullptr;

  AExpr index(const AExpr &E, const Facts &F) const {
    if (!E)
      return E;
    AExpr Out = Subst.empty() ? E : substitute(E, Subst);
    if (Simplify)
      Out = simplifyWithFacts(Out, F);
    return Out;
  }

  int reg(int Id) const {
    if (!RegMap)
      return Id;
    auto It = RegMap->find(Id);
    return It == RegMap->end() ? Id : It->second;
  }
};

KExprPtr cloneExpr(const KExprPtr &E, const CloneCtx &C, const Facts &F) {
  if (!E)
    return E;
  switch (E->K) {
  case KExpr::Kind::ConstScalar:
    return E;
  case KExpr::Kind::IndexVal:
    return ocl::kIndexVal(C.index(E->Index, F));
  case KExpr::Kind::ReadVar:
    return C.RegMap ? ocl::kReadVar(C.reg(E->VarId)) : E;
  case KExpr::Kind::Load:
    return ocl::kLoad(E->BufferId, C.index(E->Index, F));
  case KExpr::Kind::CallUF: {
    std::vector<KExprPtr> Args;
    Args.reserve(E->Args.size());
    for (const KExprPtr &A : E->Args)
      Args.push_back(cloneExpr(A, C, F));
    return ocl::kCallUF(E->UF, std::move(Args));
  }
  case KExpr::Kind::Select: {
    std::vector<ocl::BoundsCheck> Checks;
    Checks.reserve(E->Checks.size());
    bool AllProved = C.Simplify;
    for (const ocl::BoundsCheck &B : E->Checks) {
      ocl::BoundsCheck NB{C.index(B.Idx, F), C.index(B.Lo, F),
                          C.index(B.Hi, F)};
      if (AllProved && !provablyInBounds(NB.Idx, NB.Lo, NB.Hi, F))
        AllProved = false;
      Checks.push_back(std::move(NB));
    }
    if (AllProved) {
      // Every lane of this branch is provably in bounds: the guard and
      // the constant fallback vanish.
      if (C.Stats)
        ++C.Stats->SelectsResolved;
      return cloneExpr(E->Then, C, F);
    }
    return ocl::kSelect(std::move(Checks), cloneExpr(E->Then, C, F),
                        cloneExpr(E->Else, C, F));
  }
  }
  return E;
}

StmtPtr cloneStmt(const StmtPtr &S, const CloneCtx &C, const Facts &F) {
  switch (S->K) {
  case Stmt::Kind::Store:
    return ocl::sStore(S->BufferId, C.index(S->Index, F),
                       cloneExpr(S->Value, C, F));
  case Stmt::Kind::AssignVar:
    return ocl::sAssign(C.reg(S->VarId), cloneExpr(S->Value, C, F));
  case Stmt::Kind::Barrier:
    return S;
  case Stmt::Kind::Loop: {
    AExpr Count = C.index(S->Count, F);
    Facts Inner = F.withLoopVar(S->LoopVar, Count);
    std::vector<StmtPtr> Body;
    Body.reserve(S->Body.size());
    for (const StmtPtr &B : S->Body)
      Body.push_back(cloneStmt(B, C, Inner));
    return ocl::sLoop(S->LK, S->Dim, S->LoopVar, std::move(Count),
                      std::move(Body), S->Unroll, S->Simd);
  }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Interior verification
//===----------------------------------------------------------------------===//

/// True when the transformed interior body is fully clamp-free with
/// respect to the interior variable \p Id: no surviving Min/Max/Mod
/// mentioning it in any index/count expression, and no surviving
/// Select guard mentioning it.
struct InteriorVerify {
  unsigned Id;
  bool Clean = true;

  void index(const AExpr &E) {
    if (Clean && hasBoundaryOpOn(E, Id))
      Clean = false;
  }

  void expr(const KExprPtr &E) {
    if (!E || !Clean)
      return;
    index(E->Index);
    for (const ocl::BoundsCheck &B : E->Checks)
      if (mentionsVar(B.Idx, Id) || mentionsVar(B.Lo, Id) ||
          mentionsVar(B.Hi, Id)) {
        Clean = false;
        return;
      }
    for (const KExprPtr &A : E->Args)
      expr(A);
    expr(E->Then);
    expr(E->Else);
  }

  void stmt(const StmtPtr &S) {
    if (!Clean)
      return;
    index(S->Index);
    index(S->Count);
    expr(S->Value);
    for (const StmtPtr &B : S->Body)
      stmt(B);
  }
};

//===----------------------------------------------------------------------===//
// The splitter
//===----------------------------------------------------------------------===//

/// True when \p Body contains a parallel grid loop at any depth.
bool containsGridLoop(const std::vector<StmtPtr> &Body) {
  for (const StmtPtr &S : Body)
    if (S->K == Stmt::Kind::Loop &&
        (S->LK == ocl::LoopKind::Glb || containsGridLoop(S->Body)))
      return true;
  return false;
}

struct Splitter {
  ocl::Kernel &K;
  SpecStats &Stats;
  /// Occurrences of every register across the whole kernel; updated as
  /// clones introduce fresh registers so later splits stay checkable.
  std::unordered_map<int, unsigned> GlobalRegUses;

  std::vector<StmtPtr> processBody(const std::vector<StmtPtr> &Body,
                                   const Facts &F) {
    std::vector<StmtPtr> Out;
    Out.reserve(Body.size());
    for (const StmtPtr &S : Body) {
      bool Descend = S->K == Stmt::Kind::Loop &&
                     (S->LK == ocl::LoopKind::Glb ||
                      S->LK == ocl::LoopKind::Seq);
      if (!Descend) {
        Out.push_back(S);
        continue;
      }
      if (!containsGridLoop(S->Body)) {
        // Only the innermost grid loop splits: it carries the
        // unit-stride dimension, and the clamps of the outer dimensions
        // are loop-invariant inside it.
        if (S->LK == ocl::LoopKind::Glb)
          trySplit(S, F, Out);
        else
          Out.push_back(S);
        continue;
      }
      Facts Inner = F.withLoopVar(S->LoopVar, S->Count);
      Out.push_back(ocl::sLoop(S->LK, S->Dim, S->LoopVar, S->Count,
                               processBody(S->Body, Inner), S->Unroll,
                               S->Simd));
    }
    return Out;
  }

  /// Duplicates every register of \p Uses with a suffixed name,
  /// recording the mapping and keeping the global use counts current.
  std::unordered_map<int, int>
  duplicateRegs(const std::unordered_map<int, unsigned> &Uses,
                const char *Suffix) {
    std::unordered_map<int, int> Map;
    for (const auto &[Id, N] : Uses) {
      int NewId = int(K.Registers.size());
      const ocl::RegisterDecl &Old = K.Registers[std::size_t(Id)];
      K.Registers.push_back({NewId, Old.Name + Suffix, Old.Kind});
      Map[Id] = NewId;
      GlobalRegUses[NewId] = N;
    }
    return Map;
  }

  /// Splits the innermost grid loop \p Loop, or keeps it unchanged when
  /// no split applies. Loops a previous split produced never split
  /// again — the interior carries no boundary work on its variable and
  /// each edge loop runs at most H iterations — so the pass is
  /// idempotent.
  void trySplit(const StmtPtr &Loop, const Facts &F,
                std::vector<StmtPtr> &Out) {
    EligibilityScan Scan{K};
    for (const StmtPtr &S : Loop->Body)
      Scan.stmt(S);
    if (!Scan.Ok) {
      Out.push_back(Loop);
      return;
    }
    // Registers written here must not be visible elsewhere: clones get
    // fresh copies, so any outside read would see the wrong one.
    for (const auto &[Id, N] : Scan.RegUses) {
      auto It = GlobalRegUses.find(Id);
      if (It == GlobalRegUses.end() || It->second != N) {
        Out.push_back(Loop);
        return;
      }
    }

    unsigned VId = Loop->LoopVar->getVarId();
    const std::string &VName = Loop->LoopVar->getVarName();

    // Nothing to erase: the body is already clamp-free on this loop.
    InteriorVerify Own{VId};
    for (const StmtPtr &S : Loop->Body)
      Own.stmt(S);
    if (Own.Clean) {
      Out.push_back(Loop);
      return;
    }

    for (int H = 1; H <= MaxHalo; ++H) {
      // A loop of at most 2H iterations has an empty interior (and
      // every larger halo is emptier still).
      if (provablyLE(Loop->Count, cst(2 * H), F))
        break;

      Range VR;
      VR.Min = 0;
      AExpr VI = var(VName + "_i", VR);
      std::unordered_map<unsigned, AExpr> Subst{
          {VId, add(VI, cst(H))}};
      // When the interior loop runs at all, VI <= Count - 2H - 1.
      Facts IF = F.withBound(VI->getVarId(), cst(0),
                             sub(sub(Loop->Count, cst(2 * H)), cst(1)));

      // Probe: transform without committing registers or stats, then
      // verify every boundary operation on this loop evaporated.
      CloneCtx Probe{Subst, nullptr, /*Simplify=*/true, nullptr};
      std::vector<StmtPtr> Probed;
      Probed.reserve(Loop->Body.size());
      for (const StmtPtr &S : Loop->Body)
        Probed.push_back(cloneStmt(S, Probe, IF));
      InteriorVerify V{VI->getVarId()};
      for (const StmtPtr &S : Probed)
        V.stmt(S);
      if (!V.Clean)
        continue;

      // Commit. Left edge [0, min(H, count)) keeps the original body
      // and registers.
      AExpr LeftCount = amin(cst(H), Loop->Count);
      Out.push_back(ocl::sLoop(Loop->LK, Loop->Dim, Loop->LoopVar,
                               std::move(LeftCount), Loop->Body,
                               Loop->Unroll));

      // Interior [H, count - H): fresh registers, simplified body.
      auto RegMapI = duplicateRegs(Scan.RegUses, "_i");
      CloneCtx CI{Subst, &RegMapI, /*Simplify=*/true, &Stats};
      std::vector<StmtPtr> InteriorBody;
      InteriorBody.reserve(Loop->Body.size());
      for (const StmtPtr &S : Loop->Body)
        InteriorBody.push_back(cloneStmt(S, CI, IF));
      AExpr InteriorCount = amax(cst(0), sub(Loop->Count, cst(2 * H)));
      Out.push_back(ocl::sLoop(Loop->LK, Loop->Dim, VI,
                               std::move(InteriorCount),
                               std::move(InteriorBody), Loop->Unroll,
                               /*Simd=*/true));

      // Right edge [max(H, count - H), count): fresh registers, the
      // general body shifted to the tail, no simplification. Its trip
      // count count - max(H, count - H) never exceeds H; the explicit
      // min lets a second pass prove the loop short.
      AExpr VRight = var(VName + "_r", VR);
      AExpr RightStart = amax(cst(H), sub(Loop->Count, cst(H)));
      std::unordered_map<unsigned, AExpr> SubstR{
          {VId, add(VRight, RightStart)}};
      auto RegMapR = duplicateRegs(Scan.RegUses, "_r");
      CloneCtx CR{SubstR, &RegMapR, /*Simplify=*/false, nullptr};
      std::vector<StmtPtr> RightBody;
      RightBody.reserve(Loop->Body.size());
      for (const StmtPtr &S : Loop->Body)
        RightBody.push_back(cloneStmt(S, CR, Facts()));
      AExpr RightCount =
          amin(cst(H), amax(cst(0), sub(Loop->Count, RightStart)));
      Out.push_back(ocl::sLoop(Loop->LK, Loop->Dim, VRight,
                               std::move(RightCount), std::move(RightBody),
                               Loop->Unroll));

      ++Stats.LoopsSplit;
      return;
    }
    Out.push_back(Loop);
  }
};

} // namespace

ocl::Kernel specializeInterior(const ocl::Kernel &K, SpecStats *Stats) {
  ocl::Kernel Out = K;
  SpecStats Local;
  Splitter S{Out, Stats ? *Stats : Local, {}};
  countRegUses(Out.Body, S.GlobalRegUses);
  Out.Body = S.processBody(Out.Body, Facts{});
  return Out;
}

} // namespace analysis
} // namespace lift
