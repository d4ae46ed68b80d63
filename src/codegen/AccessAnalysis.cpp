//===- AccessAnalysis.cpp - Static memory-access analysis --------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "codegen/AccessAnalysis.h"

#include "support/Support.h"

using namespace lift;
using namespace lift::ocl;
using namespace lift::codegen;

const char *lift::codegen::accessPatternName(AccessPattern P) {
  switch (P) {
  case AccessPattern::Coalesced:
    return "coalesced";
  case AccessPattern::Uniform:
    return "uniform";
  case AccessPattern::Strided:
    return "strided";
  case AccessPattern::Irregular:
    return "irregular";
  case AccessPattern::Sequential:
    return "sequential";
  }
  unreachable("covered switch");
}

int AccessReport::count(AccessPattern P) const {
  int N = 0;
  for (const AccessSite &S : Sites)
    N += S.Pattern == P;
  return N;
}

bool AccessReport::fullyCoalesced() const {
  for (const AccessSite &S : Sites)
    if (S.Pattern == AccessPattern::Strided ||
        S.Pattern == AccessPattern::Irregular)
      return false;
  return true;
}

namespace {

class Analyzer {
public:
  Analyzer(const Kernel &K, const SizeEnv &Sizes) : K(K), Env(Sizes) {}

  AccessReport run() {
    walkStmts(K.Body);
    return std::move(Report);
  }

private:
  const Kernel &K;
  SizeEnv Env; ///< sizes + sample values for loop variables
  /// Innermost lane variable in scope (a Glb/Lcl dim-0 loop var id), or
  /// 0 when none.
  unsigned LaneVar = 0;
  AccessReport Report;

  /// A small interior sample value avoiding boundary clamps, chosen
  /// below the smallest loop extent seen so far where possible.
  static constexpr std::int64_t SampleBase = 5;

  void walkStmts(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts)
      walkStmt(*S);
  }

  void walkStmt(const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Store:
      noteSite(/*IsStore=*/true, S.BufferId, S.Index);
      walkExpr(*S.Value);
      return;
    case Stmt::Kind::AssignVar:
      walkExpr(*S.Value);
      return;
    case Stmt::Kind::Barrier:
      return;
    case Stmt::Kind::Loop: {
      unsigned VarId = S.LoopVar->getVarId();
      // Bind an interior sample value for this loop variable so index
      // probes avoid the boundary clamps.
      std::int64_t Extent = 0;
      // Counts may reference outer loop vars, already bound.
      Extent = S.Count->evaluate(Env);
      std::int64_t Sample =
          Extent > 2 * SampleBase ? SampleBase : std::max<std::int64_t>(
                                                     0, Extent / 2);
      Env[VarId] = Sample;
      unsigned SavedLane = LaneVar;
      bool IsLane = (S.LK == LoopKind::Glb || S.LK == LoopKind::Lcl) &&
                    S.Dim == 0;
      if (IsLane)
        LaneVar = VarId;
      walkStmts(S.Body);
      LaneVar = SavedLane;
      Env.erase(VarId);
      return;
    }
    }
    unreachable("covered switch");
  }

  void walkExpr(const KExpr &E) {
    switch (E.K) {
    case KExpr::Kind::Load:
      noteSite(/*IsStore=*/false, E.BufferId, E.Index);
      return;
    case KExpr::Kind::CallUF:
      for (const KExprPtr &A : E.Args)
        walkExpr(*A);
      return;
    case KExpr::Kind::Select:
      walkExpr(*E.Then);
      walkExpr(*E.Else);
      return;
    case KExpr::Kind::ConstScalar:
    case KExpr::Kind::IndexVal:
    case KExpr::Kind::ReadVar:
      return;
    }
    unreachable("covered switch");
  }

  void noteSite(bool IsStore, int BufferId, const AExpr &Index) {
    const BufferDecl &B = K.buffer(BufferId);
    if (B.Space != MemSpace::Global)
      return;
    AccessSite Site;
    Site.IsStore = IsStore;
    Site.BufferId = BufferId;
    Site.BufferName = B.Name;
    Site.Index = Index;

    if (LaneVar == 0 || !referencesVar(Index, LaneVar)) {
      Site.Pattern =
          LaneVar == 0 ? AccessPattern::Sequential : AccessPattern::Uniform;
      Report.Sites.push_back(std::move(Site));
      return;
    }

    // Probe linearity: index at lane, lane+1, lane+2.
    std::int64_t Saved = Env[LaneVar];
    std::int64_t V0 = Index->evaluate(Env);
    Env[LaneVar] = Saved + 1;
    std::int64_t V1 = Index->evaluate(Env);
    Env[LaneVar] = Saved + 2;
    std::int64_t V2 = Index->evaluate(Env);
    Env[LaneVar] = Saved;

    std::int64_t D1 = V1 - V0;
    std::int64_t D2 = V2 - V1;
    if (D1 != D2) {
      Site.Pattern = AccessPattern::Irregular;
    } else {
      Site.Stride = D1;
      Site.Pattern = D1 == 0   ? AccessPattern::Uniform
                     : D1 == 1 ? AccessPattern::Coalesced
                               : AccessPattern::Strided;
    }
    Report.Sites.push_back(std::move(Site));
  }

  static bool referencesVar(const AExpr &E, unsigned VarId) {
    if (E->getKind() == ArithExpr::Kind::Var)
      return E->getVarId() == VarId;
    for (const AExpr &Op : E->getOperands())
      if (referencesVar(Op, VarId))
        return true;
    return false;
  }
};

} // namespace

AccessReport lift::codegen::analyzeAccesses(const Kernel &K,
                                            const SizeEnv &Sizes) {
  Analyzer A(K, Sizes);
  return A.run();
}

//===----------------------------------------------------------------------===//
// Static region work counts
//===----------------------------------------------------------------------===//

namespace {

/// Evaluates \p E under \p Env without touching loop variables that
/// are not bound; false when any such variable appears. Loop trip
/// counts in generated kernels only reference size variables, so this
/// normally succeeds — the fallible form keeps malformed input from
/// turning a report into a fatal error.
bool tryEval(const AExpr &E, const SizeEnv &Env, std::int64_t &Out) {
  switch (E->getKind()) {
  case ArithExpr::Kind::Cst:
    Out = E->getCst();
    return true;
  case ArithExpr::Kind::Var: {
    auto It = Env.find(E->getVarId());
    if (It == Env.end())
      return false;
    Out = It->second;
    return true;
  }
  case ArithExpr::Kind::Add:
  case ArithExpr::Kind::Mul: {
    bool IsAdd = E->getKind() == ArithExpr::Kind::Add;
    std::int64_t Acc = IsAdd ? 0 : 1;
    for (const AExpr &Op : E->getOperands()) {
      std::int64_t V;
      if (!tryEval(Op, Env, V))
        return false;
      Acc = IsAdd ? Acc + V : Acc * V;
    }
    Out = Acc;
    return true;
  }
  case ArithExpr::Kind::Div:
  case ArithExpr::Kind::Mod:
  case ArithExpr::Kind::Min:
  case ArithExpr::Kind::Max: {
    std::int64_t A, B;
    if (!tryEval(E->getOperands()[0], Env, A) ||
        !tryEval(E->getOperands()[1], Env, B))
      return false;
    switch (E->getKind()) {
    case ArithExpr::Kind::Div:
      if (B == 0)
        return false;
      Out = floorDivInt(A, B);
      return true;
    case ArithExpr::Kind::Mod:
      if (B == 0)
        return false;
      Out = floorModInt(A, B);
      return true;
    case ArithExpr::Kind::Min:
      Out = A < B ? A : B;
      return true;
    default:
      Out = A > B ? A : B;
      return true;
    }
  }
  }
  unreachable("covered switch");
}

std::uint64_t tripCount(const Stmt &Loop, const SizeEnv &Env) {
  std::int64_t N = 0;
  if (!tryEval(Loop.Count, Env, N) || N < 0)
    return 0;
  return std::uint64_t(N);
}

class WorkCounter {
public:
  WorkCounter(const Kernel &K, const SizeEnv &Env) : K(K), Env(Env) {}

  RegionWork count(const Stmt &Root, std::uint64_t OuterMult) {
    Work.Iterations = tripCount(Root, Env);
    walkStmt(Root, OuterMult);
    return Work;
  }

private:
  void walkStmt(const Stmt &S, std::uint64_t Mult) {
    switch (S.K) {
    case Stmt::Kind::Store:
      if (K.buffer(S.BufferId).Space == MemSpace::Global)
        Work.BytesWritten += 4 * Mult;
      walkExpr(*S.Value, Mult);
      return;
    case Stmt::Kind::AssignVar:
      walkExpr(*S.Value, Mult);
      return;
    case Stmt::Kind::Loop: {
      std::uint64_t Inner = Mult * tripCount(S, Env);
      for (const StmtPtr &C : S.Body)
        walkStmt(*C, Inner);
      return;
    }
    case Stmt::Kind::Barrier:
      return;
    }
  }

  void walkExpr(const KExpr &E, std::uint64_t Mult) {
    switch (E.K) {
    case KExpr::Kind::Load:
      if (K.buffer(E.BufferId).Space == MemSpace::Global)
        Work.BytesRead += 4 * Mult;
      return;
    case KExpr::Kind::CallUF:
      Work.Flops += std::uint64_t(E.UF->getFlopCost()) * Mult;
      for (const KExprPtr &A : E.Args)
        walkExpr(*A, Mult);
      return;
    case KExpr::Kind::Select:
      // Count the in-bounds branch on every lane (see header comment).
      walkExpr(*E.Then, Mult);
      return;
    case KExpr::Kind::ConstScalar:
    case KExpr::Kind::IndexVal:
    case KExpr::Kind::ReadVar:
      return;
    }
  }

  const Kernel &K;
  const SizeEnv &Env;
  RegionWork Work;
};

/// Product of the trip counts of every loop strictly enclosing
/// \p Target, or false when \p Target is not in this statement tree.
bool enclosingMult(const std::vector<StmtPtr> &Body, const Stmt *Target,
                   const SizeEnv &Env, std::uint64_t &Mult) {
  for (const StmtPtr &S : Body) {
    if (S.get() == Target)
      return true;
    if (S->K != Stmt::Kind::Loop)
      continue;
    std::uint64_t Here = Mult;
    Mult *= tripCount(*S, Env);
    if (enclosingMult(S->Body, Target, Env, Mult))
      return true;
    Mult = Here;
  }
  return false;
}

} // namespace

RegionWork lift::codegen::staticRegionWork(const Kernel &K,
                                           const Stmt &RegionRoot,
                                           const SizeEnv &Sizes) {
  std::uint64_t Mult = 1;
  if (!enclosingMult(K.Body, &RegionRoot, Sizes, Mult))
    fatalError("staticRegionWork: region root is not a statement of the "
               "kernel");
  WorkCounter C(K, Sizes);
  RegionWork W = C.count(RegionRoot, Mult);
  W.Iterations *= Mult;
  return W;
}
