//===- CEmitter.cpp - Kernel AST to plain C --------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "native/CEmitter.h"

#include "support/Support.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace lift;
using namespace lift::native;
using namespace lift::ocl;

namespace {

const char *cKindName(ir::ScalarKind K) {
  return K == ir::ScalarKind::Float ? "float" : "int32_t";
}

/// Prints a float so it round-trips bit-exactly through the C
/// compiler: 9 significant decimal digits suffice for binary32, and a
/// trailing 'f' keeps the literal (and all arithmetic folded on it) in
/// float. Infinities and NaNs map onto the math.h macros.
std::string formatFloat(float V) {
  if (std::isnan(V))
    return "NAN";
  if (std::isinf(V))
    return V > 0 ? "INFINITY" : "(-INFINITY)";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", double(V));
  std::string S(Buf);
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return S + "f";
}

/// C identifier map for everything the kernel names: buffers,
/// registers, loop variables and size arguments. Names are sanitized
/// and deduplicated against each other, the ABI parameter names, the
/// runtime helpers and the C keywords, in a deterministic order, so
/// equal kernels always render identically.
class NameMap {
public:
  NameMap() {
    for (const char *R :
         {"auto",     "break",   "case",     "char",   "const",    "continue",
          "default",  "do",      "double",   "else",   "enum",     "extern",
          "float",    "for",     "goto",     "if",     "inline",   "int",
          "long",     "register", "restrict", "return", "short",   "signed",
          "sizeof",   "static",  "struct",   "switch", "typedef",  "union",
          "unsigned", "void",    "volatile", "while",  "lift_bufs",
          "lift_sizes", "lift_threads", "lift_fdiv", "lift_fmod", "lift_min",
          "lift_max", "lift_i",  "int32_t",  "sqrt",   "fmax",     "fmin",
          "lift_prof", "lift_prof_now", "lift_t0"})
      Used.insert(R);
  }

  std::string claim(const std::string &Requested) {
    std::string Base = sanitize(Requested);
    std::string Name = Base;
    for (unsigned N = 2; !Used.insert(Name).second; ++N)
      Name = Base + "_" + std::to_string(N);
    return Name;
  }

  void setBuffer(int Id, std::string Name) { BufNames[Id] = std::move(Name); }
  void setRegister(int Id, std::string Name) {
    RegNames[Id] = std::move(Name);
  }
  void setVar(unsigned Id, std::string Name) { VarNames[Id] = std::move(Name); }

  bool hasVar(unsigned Id) const { return VarNames.count(Id) != 0; }
  const std::string &buffer(int Id) const { return BufNames.at(Id); }
  const std::string &reg(int Id) const { return RegNames.at(Id); }
  const std::string &var(unsigned Id) const {
    auto It = VarNames.find(Id);
    if (It == VarNames.end())
      fatalError("native emitter: unbound arith variable in kernel index");
    return It->second;
  }

private:
  static std::string sanitize(const std::string &S) {
    std::string Out;
    for (char C : S)
      Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_') ? C
                                                                       : '_';
    if (Out.empty() || std::isdigit(static_cast<unsigned char>(Out[0])))
      Out = "v_" + Out;
    return Out;
  }

  std::unordered_set<std::string> Used;
  std::unordered_map<int, std::string> BufNames;
  std::unordered_map<int, std::string> RegNames;
  std::unordered_map<unsigned, std::string> VarNames;
};

/// Where registers and local/private buffers get declared: inside the
/// parallel root that (exclusively) uses them, or at function scope
/// with parallelism disabled when any use escapes that discipline.
struct ParPlan {
  bool Parallel = false; ///< pragmas on the roots, decls privatized
  std::set<const Stmt *> Roots; ///< outermost Glb/Wrg loops
  /// Registers / non-global buffers to declare in each root's body.
  std::unordered_map<const Stmt *, std::vector<int>> RootRegs;
  std::unordered_map<const Stmt *, std::vector<int>> RootBufs;
  /// Declared at function scope (sequential fallback, or unused).
  std::vector<int> TopRegs;
  std::vector<int> TopBufs;
};

class PlanBuilder {
public:
  PlanBuilder(const Kernel &K, bool WantParallel) : K(K) {
    for (const StmtPtr &S : K.Body)
      findRoots(*S, /*InRoot=*/false);
    for (const StmtPtr &S : K.Body)
      scanStmt(*S, /*Root=*/nullptr);
    build(WantParallel);
  }

  ParPlan take() { return std::move(Plan); }

private:
  /// Use sites of one register or buffer: the set of parallel roots it
  /// appears under, and whether it also appears outside every root.
  struct Uses {
    std::set<const Stmt *> Roots;
    bool OutsideRoot = false;

    void note(const Stmt *Root) {
      if (Root)
        Roots.insert(Root);
      else
        OutsideRoot = true;
    }
    bool privatizable() const { return !OutsideRoot && Roots.size() <= 1; }
  };

  void findRoots(const Stmt &S, bool InRoot) {
    if (S.K != Stmt::Kind::Loop) {
      return;
    }
    bool IsPar = S.LK == LoopKind::Glb || S.LK == LoopKind::Wrg;
    if (IsPar && !InRoot)
      Plan.Roots.insert(&S);
    for (const StmtPtr &C : S.Body)
      findRoots(*C, InRoot || IsPar);
  }

  void scanStmt(const Stmt &S, const Stmt *Root) {
    switch (S.K) {
    case Stmt::Kind::Store:
      noteBuffer(S.BufferId, Root);
      scanExpr(*S.Value, Root);
      break;
    case Stmt::Kind::AssignVar:
      RegUses[S.VarId].note(Root);
      scanExpr(*S.Value, Root);
      break;
    case Stmt::Kind::Loop: {
      const Stmt *Inner = Plan.Roots.count(&S) ? &S : Root;
      for (const StmtPtr &C : S.Body)
        scanStmt(*C, Inner);
      break;
    }
    case Stmt::Kind::Barrier:
      break;
    }
  }

  void scanExpr(const KExpr &E, const Stmt *Root) {
    switch (E.K) {
    case KExpr::Kind::ReadVar:
      RegUses[E.VarId].note(Root);
      break;
    case KExpr::Kind::Load:
      noteBuffer(E.BufferId, Root);
      break;
    case KExpr::Kind::CallUF:
      for (const KExprPtr &A : E.Args)
        scanExpr(*A, Root);
      break;
    case KExpr::Kind::Select:
      scanExpr(*E.Then, Root);
      scanExpr(*E.Else, Root);
      break;
    case KExpr::Kind::ConstScalar:
    case KExpr::Kind::IndexVal:
      break;
    }
  }

  void noteBuffer(int Id, const Stmt *Root) {
    if (K.buffer(Id).Space != MemSpace::Global)
      BufUses[Id].note(Root);
  }

  void build(bool WantParallel) {
    bool AllPrivatizable = true;
    for (const auto &KV : RegUses)
      AllPrivatizable &= KV.second.privatizable();
    for (const auto &KV : BufUses)
      AllPrivatizable &= KV.second.privatizable();
    Plan.Parallel = WantParallel && AllPrivatizable && !Plan.Roots.empty();

    // Declaration order follows the kernel's declaration lists so the
    // output is independent of use order.
    for (const BufferDecl &B : K.Buffers) {
      if (B.Space == MemSpace::Global)
        continue;
      auto It = BufUses.find(B.Id);
      const Stmt *Root = Plan.Parallel && It != BufUses.end() &&
                                 !It->second.Roots.empty()
                             ? *It->second.Roots.begin()
                             : nullptr;
      if (Root)
        Plan.RootBufs[Root].push_back(B.Id);
      else
        Plan.TopBufs.push_back(B.Id);
    }
    for (const RegisterDecl &R : K.Registers) {
      auto It = RegUses.find(R.Id);
      const Stmt *Root = Plan.Parallel && It != RegUses.end() &&
                                 !It->second.Roots.empty()
                             ? *It->second.Roots.begin()
                             : nullptr;
      if (Root)
        Plan.RootRegs[Root].push_back(R.Id);
      else
        Plan.TopRegs.push_back(R.Id);
    }
  }

  const Kernel &K;
  ParPlan Plan;
  std::unordered_map<int, Uses> RegUses;
  std::unordered_map<int, Uses> BufUses;
};

/// True when \p Loop's body is nothing but stores to buffers the body
/// never loads: its iterations are then independent lanes, and
/// `#pragma omp simd` cannot reorder a read after a write.
bool isPureStoreStream(const Stmt &Loop) {
  std::unordered_set<int> Stored;
  for (const StmtPtr &S : Loop.Body) {
    if (S->K != Stmt::Kind::Store)
      return false;
    Stored.insert(S->BufferId);
  }
  struct LoadScan {
    const std::unordered_set<int> &Stored;
    bool Hit = false;
    void expr(const KExpr &E) {
      if (E.K == KExpr::Kind::Load && Stored.count(E.BufferId))
        Hit = true;
      for (const KExprPtr &A : E.Args)
        expr(*A);
      if (E.Then)
        expr(*E.Then);
      if (E.Else)
        expr(*E.Else);
    }
  } Scan{Stored};
  for (const StmtPtr &S : Loop.Body)
    Scan.expr(*S->Value);
  return !Scan.Hit;
}

class Printer {
public:
  Printer(const Kernel &K, const CEmitOptions &O)
      : K(K), Profile(O.Profile), OpenMP(O.OpenMP), Plan(makePlan(O)) {
    // Claim names in a fixed order: buffers, registers, size args,
    // loop variables (in syntactic order), so renames on collision are
    // deterministic.
    for (const BufferDecl &B : K.Buffers)
      Names.setBuffer(B.Id, Names.claim(B.Name));
    for (const RegisterDecl &R : K.Registers)
      Names.setRegister(R.Id, Names.claim(R.Name));
    for (const auto &SA : K.SizeArgs)
      Names.setVar(SA.first, Names.claim(SA.second));
    for (const StmtPtr &S : K.Body)
      claimLoopVars(*S);
    EntryName = Names.claim(K.Name);
    if (Profile) {
      std::vector<KernelRegion> Regions = profileRegions(K);
      for (std::size_t I = 0; I != Regions.size(); ++I)
        RegionIdx[Regions[I].Loop] = {I, Regions[I]};
    }
  }

  std::string run();

private:
  ParPlan makePlan(const CEmitOptions &O) {
    // Profiling forces sequential emission: region timers nested in a
    // parallel loop would race and attribute one thread's clock to the
    // whole grid.
    return PlanBuilder(K, O.OpenMP && !O.Profile).take();
  }

  void claimLoopVars(const Stmt &S) {
    if (S.K == Stmt::Kind::Loop && !Names.hasVar(S.LoopVar->getVarId()))
      Names.setVar(S.LoopVar->getVarId(),
                   Names.claim(S.LoopVar->getVarName()));
    for (const StmtPtr &C : S.Body)
      claimLoopVars(*C);
  }

  void line(const std::string &S) {
    for (int I = 0; I != Indent; ++I)
      Out += "  ";
    Out += S;
    Out += '\n';
  }

  std::string renderIndex(const AExpr &E) const;
  std::string renderExpr(const KExpr &E) const;
  std::string renderChecks(const std::vector<BoundsCheck> &Checks) const;
  void printDecl(int BufId);
  void printRegDecl(int RegId);
  void printStmt(const Stmt &S);
  void printStmts(const std::vector<StmtPtr> &Body);

  const Kernel &K;
  bool Profile;
  bool OpenMP;
  ParPlan Plan;
  NameMap Names;
  std::string EntryName;
  std::string Out;
  int Indent = 0;
  /// Profile mode: first loop of a region -> (lift_prof slot, region).
  std::unordered_map<const Stmt *, std::pair<std::size_t, KernelRegion>>
      RegionIdx;
};

std::string Printer::renderIndex(const AExpr &E) const {
  switch (E->getKind()) {
  case ArithExpr::Kind::Cst:
    return std::to_string(E->getCst());
  case ArithExpr::Kind::Var:
    return Names.var(E->getVarId());
  case ArithExpr::Kind::Add:
  case ArithExpr::Kind::Mul: {
    const char *Op = E->getKind() == ArithExpr::Kind::Add ? " + " : " * ";
    std::string S = "(";
    const std::vector<AExpr> &Ops = E->getOperands();
    for (std::size_t I = 0; I != Ops.size(); ++I) {
      if (I)
        S += Op;
      S += renderIndex(Ops[I]);
    }
    return S + ")";
  }
  case ArithExpr::Kind::Div:
  case ArithExpr::Kind::Mod:
  case ArithExpr::Kind::Min:
  case ArithExpr::Kind::Max: {
    const char *Fn = nullptr;
    switch (E->getKind()) {
    case ArithExpr::Kind::Div:
      Fn = "lift_fdiv";
      break;
    case ArithExpr::Kind::Mod:
      Fn = "lift_fmod";
      break;
    case ArithExpr::Kind::Min:
      Fn = "lift_min";
      break;
    default:
      Fn = "lift_max";
      break;
    }
    return std::string(Fn) + "(" + renderIndex(E->getOperands()[0]) + ", " +
           renderIndex(E->getOperands()[1]) + ")";
  }
  }
  unreachable("covered switch");
}

std::string Printer::renderExpr(const KExpr &E) const {
  switch (E.K) {
  case KExpr::Kind::ConstScalar:
    return E.Const.K == ir::ScalarKind::Float ? formatFloat(E.Const.F)
                                              : std::to_string(E.Const.I);
  case KExpr::Kind::IndexVal:
    // The simulator narrows index values to int32 when they enter the
    // scalar world (Sim.cpp evalExpr); mirror that exactly.
    return "(int32_t)" + renderIndex(E.Index);
  case KExpr::Kind::ReadVar:
    return Names.reg(E.VarId);
  case KExpr::Kind::Load:
    return Names.buffer(E.BufferId) + "[" + renderIndex(E.Index) + "]";
  case KExpr::Kind::CallUF: {
    std::string S = E.UF->getName() + "(";
    for (std::size_t I = 0; I != E.Args.size(); ++I) {
      if (I)
        S += ", ";
      S += renderExpr(*E.Args[I]);
    }
    return S + ")";
  }
  case KExpr::Kind::Select:
    return "(" + renderChecks(E.Checks) + " ? " + renderExpr(*E.Then) +
           " : " + renderExpr(*E.Else) + ")";
  }
  unreachable("covered switch");
}

std::string Printer::renderChecks(const std::vector<BoundsCheck> &Checks) const {
  std::string Cond;
  for (std::size_t I = 0; I != Checks.size(); ++I) {
    const BoundsCheck &C = Checks[I];
    if (I)
      Cond += " && ";
    std::string Idx = renderIndex(C.Idx);
    Cond += "(" + renderIndex(C.Lo) + " <= " + Idx + " && " + Idx + " < " +
            renderIndex(C.Hi) + ")";
  }
  return Cond;
}

void Printer::printDecl(int BufId) {
  const BufferDecl &B = K.buffer(BufId);
  // Local/private tiles become (possibly variable-length) stack
  // arrays, zero-initialized like the simulator's fresh storage so an
  // unwritten element reads identically. VLAs cannot take an
  // initializer, so symbolic extents get an explicit fill loop.
  std::string N = renderIndex(B.NumElems);
  if (B.NumElems->getKind() == ArithExpr::Kind::Cst) {
    line(std::string(cKindName(B.ElemKind)) + " " + Names.buffer(BufId) +
         "[" + N + "] = {0};");
    return;
  }
  line(std::string(cKindName(B.ElemKind)) + " " + Names.buffer(BufId) + "[" +
       N + "];");
  line("for (long long lift_i = 0; lift_i < " + N + "; ++lift_i)");
  line("  " + Names.buffer(BufId) + "[lift_i] = 0;");
}

void Printer::printRegDecl(int RegId) {
  const RegisterDecl &R = K.Registers[std::size_t(RegId)];
  line(std::string(cKindName(R.Kind)) + " " + Names.reg(RegId) + " = 0;");
}

void Printer::printStmt(const Stmt &S) {
  switch (S.K) {
  case Stmt::Kind::Store:
    line(Names.buffer(S.BufferId) + "[" + renderIndex(S.Index) +
         "] = " + renderExpr(*S.Value) + ";");
    return;
  case Stmt::Kind::AssignVar:
    line(Names.reg(S.VarId) + " = " + renderExpr(*S.Value) + ";");
    return;
  case Stmt::Kind::Barrier:
    // A Lcl loop completes for all local ids before the next statement
    // runs — both here and on the simulator — so the barrier is
    // structural and compiles to nothing.
    line("/* work-group barrier: implicit (loop completed) */");
    return;
  case Stmt::Kind::Loop:
    break;
  }

  bool IsRoot = Plan.Parallel && Plan.Roots.count(&S);
  bool Simd = OpenMP && S.Simd && isPureStoreStream(S);
  if (IsRoot)
    line(std::string("#pragma omp parallel for") + (Simd ? " simd" : "") +
         " schedule(static) num_threads(lift_threads)");
  else if (Simd)
    line("#pragma omp simd");
  if (S.Unroll && S.Count->getKind() == ArithExpr::Kind::Cst &&
      S.Count->getCst() >= 1 && S.Count->getCst() <= 64)
    line("#pragma GCC unroll " + std::to_string(S.Count->getCst()));
  const std::string V = Names.var(S.LoopVar->getVarId());
  line("for (long long " + V + " = 0; " + V + " < " + renderIndex(S.Count) +
       "; ++" + V + ") {");
  ++Indent;
  if (IsRoot) {
    auto BI = Plan.RootBufs.find(&S);
    if (BI != Plan.RootBufs.end())
      for (int Id : BI->second)
        printDecl(Id);
    auto RI = Plan.RootRegs.find(&S);
    if (RI != Plan.RootRegs.end())
      for (int Id : RI->second)
        printRegDecl(Id);
  }
  printStmts(S.Body);
  --Indent;
  line("}");
}

void Printer::printStmts(const std::vector<StmtPtr> &Body) {
  for (std::size_t I = 0; I != Body.size(); ++I) {
    auto Region = RegionIdx.end();
    if (Profile)
      Region = RegionIdx.find(Body[I].get());
    if (Region == RegionIdx.end()) {
      printStmt(*Body[I]);
      continue;
    }
    // A region times its loops as one: a single nest, or the edge /
    // interior / edge loops of a split innermost loop.
    const std::size_t Slot = Region->second.first;
    const KernelRegion &R = Region->second.second;
    line("{ /* region " + std::to_string(Slot) + ": " + R.Name + " */");
    ++Indent;
    line("const double lift_t0 = lift_prof_now();");
    for (std::size_t J = 0; J != R.Loops.size(); ++J)
      printStmt(*Body[I + J]);
    I += R.Loops.size() - 1;
    line("lift_prof[" + std::to_string(Slot) +
         "] += lift_prof_now() - lift_t0;");
    --Indent;
    line("}");
  }
}

std::string Printer::run() {
  Out += "// " + EntryName + ": generated by the liftcpp native backend.\n";
  Out += "// Semantics contract: bit-identical to the NDRange simulator\n";
  Out += "// (all loops run 0..count-1; floor division; exact float\n";
  Out += "// literals; float-precision math builtins).\n\n";
  Out += "#include <math.h>\n";
  Out += "#include <stdint.h>\n";
  if (Profile)
    Out += "#include <time.h>\n";
  Out += "\n";
  // OpenCL's sqrt/fmax/fmin on float stay in float; C promotes to
  // double. Map them to the float-precision versions the interpreter's
  // C++ callbacks (std::sqrt(float) etc.) compile to.
  Out += "#define sqrt(x) sqrtf(x)\n";
  Out += "#define fmax(a, b) fmaxf((a), (b))\n";
  Out += "#define fmin(a, b) fminf((a), (b))\n\n";
  // Floor-semantics integer helpers: the simulator evaluates index
  // arithmetic with floorDivInt/floorModInt (support/Support.h); these
  // are the same functions in C.
  Out += "static inline long long lift_fdiv(long long a, long long b) {\n";
  Out += "  long long q = a / b;\n";
  Out += "  if ((a % b != 0) && ((a < 0) != (b < 0)))\n";
  Out += "    --q;\n";
  Out += "  return q;\n";
  Out += "}\n";
  Out += "static inline long long lift_fmod(long long a, long long b) {\n";
  Out += "  return a - lift_fdiv(a, b) * b;\n";
  Out += "}\n";
  Out += "static inline long long lift_min(long long a, long long b) {\n";
  Out += "  return a < b ? a : b;\n";
  Out += "}\n";
  Out += "static inline long long lift_max(long long a, long long b) {\n";
  Out += "  return a > b ? a : b;\n";
  Out += "}\n";
  if (Profile) {
    // The region timer: the same monotonic clock the runner times whole
    // kernels with, read as seconds so accumulation stays a single add.
    Out += "static inline double lift_prof_now(void) {\n";
    Out += "  struct timespec lift_ts;\n";
    Out += "  clock_gettime(CLOCK_MONOTONIC, &lift_ts);\n";
    Out += "  return (double)lift_ts.tv_sec + 1e-9 * "
           "(double)lift_ts.tv_nsec;\n";
    Out += "}\n";
  }
  Out += "\n";

  // User functions are force-inlined: a call the vectorizer cannot see
  // through keeps an `omp simd` interior scalar.
  for (const ir::UserFunPtr &UF : K.UserFuns) {
    std::string Sig = "static inline __attribute__((always_inline)) ";
    Sig += UF->getRetKind() == ir::ScalarKind::Float ? "float" : "int";
    Sig += " " + UF->getName() + "(";
    for (std::size_t I = 0; I != UF->getParamNames().size(); ++I) {
      if (I)
        Sig += ", ";
      Sig += UF->getParamKinds()[I] == ir::ScalarKind::Float ? "float"
                                                             : "int";
      Sig += " " + UF->getParamNames()[I];
    }
    Sig += ") { " + UF->getOpenCLBody() + " }";
    Out += Sig + "\n";
  }
  if (!K.UserFuns.empty())
    Out += "\n";

  Out += "void " + EntryName +
         "(void **lift_bufs, const long long *lift_sizes, "
         "int lift_threads" +
         (Profile ? std::string(", double *lift_prof") : std::string()) +
         ") {\n";
  Indent = 1;
  std::size_t Slot = 0;
  for (const BufferDecl &B : K.Buffers) {
    if (B.Space != MemSpace::Global)
      continue;
    line(std::string(cKindName(B.ElemKind)) + " *restrict " +
         Names.buffer(B.Id) + " = (" + cKindName(B.ElemKind) +
         " *)lift_bufs[" + std::to_string(Slot++) + "];");
  }
  for (std::size_t I = 0; I != K.SizeArgs.size(); ++I)
    line("const long long " + Names.var(K.SizeArgs[I].first) +
         " = lift_sizes[" + std::to_string(I) + "];");
  line("(void)lift_threads;");
  for (int Id : Plan.TopBufs)
    printDecl(Id);
  for (int Id : Plan.TopRegs)
    printRegDecl(Id);
  printStmts(K.Body);
  Indent = 0;
  Out += "}\n";
  return Out;
}

} // namespace

std::vector<KernelRegion> lift::native::profileRegions(const Kernel &K) {
  auto IsPar = [](const Stmt &S) {
    return S.K == Stmt::Kind::Loop &&
           (S.LK == LoopKind::Glb || S.LK == LoopKind::Wrg);
  };
  // The loops of \p Body grouped as regions see them: a split innermost
  // loop (edge, Simd interior, edge; analysis/InteriorSpec.h) is one
  // group, every other loop its own.
  auto GroupLoops = [&](const std::vector<StmtPtr> &Body) {
    std::vector<std::vector<const Stmt *>> Groups;
    for (std::size_t I = 0; I != Body.size(); ++I) {
      const Stmt &S = *Body[I];
      if (S.K != Stmt::Kind::Loop)
        continue;
      bool Split = I + 2 < Body.size() && S.LK == LoopKind::Glb &&
                   Body[I + 1]->Simd;
      for (std::size_t J = 1; Split && J != 3; ++J)
        Split = Body[I + J]->K == Stmt::Kind::Loop &&
                Body[I + J]->LK == LoopKind::Glb &&
                Body[I + J]->Dim == S.Dim;
      std::size_t N = Split ? 3 : 1;
      Groups.emplace_back();
      for (std::size_t J = 0; J != N; ++J)
        Groups.back().push_back(Body[I + J].get());
      I += N - 1;
    }
    return Groups;
  };

  std::vector<KernelRegion> Out;
  std::unordered_set<std::string> UsedNames;
  auto Add = [&](std::vector<const Stmt *> Loops) {
    const Stmt *Named = Loops.front();
    KernelRegion R;
    R.Kind = loopKindName(Named->LK);
    std::string Base = R.Kind + "." + Named->LoopVar->getVarName();
    R.Name = Base;
    for (unsigned N = 2; !UsedNames.insert(R.Name).second; ++N)
      R.Name = Base + "_" + std::to_string(N);
    R.Loop = Loops.front();
    R.Loops = std::move(Loops);
    Out.push_back(std::move(R));
  };

  for (std::vector<const Stmt *> &Top : GroupLoops(K.Body)) {
    if (Top.size() != 1) {
      Add(std::move(Top));
      continue;
    }
    // Walk the grid spine: consecutive Glb/Wrg loops whose body is a
    // single nested Glb/Wrg loop (the NDRange dimensions).
    const Stmt *Cur = Top.front();
    while (IsPar(*Cur) && Cur->Body.size() == 1 && IsPar(*Cur->Body[0]))
      Cur = Cur->Body[0].get();
    // A grid whose innermost spine loop carries several sub-loops
    // (tile fill / compute / reduce) gets one region per sub-loop;
    // everything else is a single whole-nest region.
    std::vector<std::vector<const Stmt *>> Subloops;
    if (IsPar(*Cur))
      Subloops = GroupLoops(Cur->Body);
    if (Subloops.size() >= 2)
      for (std::vector<const Stmt *> &L : Subloops)
        Add(std::move(L));
    else
      Add(std::move(Top));
  }
  return Out;
}

std::string lift::native::emitC(const Kernel &K, const CEmitOptions &O) {
  return Printer(K, O).run();
}
