//===- Differential.cpp - Cross-oracle checking and campaigns -------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "analysis/RangeAnalysis.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "ir/TypeInference.h"
#include "native/NativeRunner.h"
#include "obs/Metrics.h"
#include "rewrite/Exploration.h"
#include "rewrite/Lowering.h"

#include <cstdio>
#include <cstring>
#include <sstream>

using namespace lift;
using namespace lift::ir;
using namespace lift::fuzz;
using namespace lift::rewrite;
using namespace lift::codegen;

namespace {

/// Bitwise float equality: stricter than ==, so -0.0f vs 0.0f or NaN
/// payload drift between oracles is still a reportable divergence.
bool bitEqual(float A, float B) {
  std::uint32_t UA, UB;
  std::memcpy(&UA, &A, sizeof(UA));
  std::memcpy(&UB, &B, sizeof(UB));
  return UA == UB;
}

/// First index where the outputs differ, or -1 when bit-identical
/// (including equal lengths).
std::int64_t firstDivergence(const std::vector<float> &A,
                             const std::vector<float> &B) {
  if (A.size() != B.size())
    return std::int64_t(std::min(A.size(), B.size()));
  for (std::size_t I = 0; I != A.size(); ++I)
    if (!bitEqual(A[I], B[I]))
      return std::int64_t(I);
  return -1;
}

std::string renderOutputs(const std::vector<float> &V, std::size_t Around) {
  std::ostringstream OS;
  std::size_t Begin = Around >= 4 ? Around - 4 : 0;
  std::size_t End = std::min(V.size(), Around + 5);
  if (Begin > 0)
    OS << "... ";
  for (std::size_t I = Begin; I != End; ++I)
    OS << "[" << I << "]=" << V[I] << " ";
  if (End < V.size())
    OS << "...";
  return OS.str();
}

/// A full mismatch report for one diverging oracle pair.
std::string mismatchReport(const std::string &Oracle,
                           const std::vector<float> &Expected,
                           const std::vector<float> &Got) {
  std::int64_t At = firstDivergence(Expected, Got);
  std::ostringstream OS;
  OS << "oracle mismatch: " << Oracle << "\n";
  OS << "expected " << Expected.size() << " elements, got " << Got.size()
     << "; first divergence at index " << At << "\n";
  std::size_t Around = At >= 0 ? std::size_t(At) : 0;
  OS << "reference: " << renderOutputs(Expected, Around) << "\n";
  OS << "observed:  " << renderOutputs(Got, Around) << "\n";
  return OS.str();
}

bool countersEqual(const ocl::ExecCounters &A, const ocl::ExecCounters &B) {
  return A.GlobalLoads == B.GlobalLoads && A.GlobalStores == B.GlobalStores &&
         A.GlobalLoadLineMisses == B.GlobalLoadLineMisses &&
         A.LocalLoads == B.LocalLoads && A.LocalStores == B.LocalStores &&
         A.PrivateAccesses == B.PrivateAccesses && A.Flops == B.Flops &&
         A.UserFunCalls == B.UserFunCalls &&
         A.LoopIterations == B.LoopIterations && A.Barriers == B.Barriers &&
         A.SelectEvals == B.SelectEvals;
}

std::string counterReport(const ocl::ExecCounters &A,
                          const ocl::ExecCounters &B) {
  std::ostringstream OS;
  auto Row = [&](const char *Name, std::uint64_t X, std::uint64_t Y) {
    if (X != Y)
      OS << "  " << Name << ": " << X << " vs " << Y << "\n";
  };
  OS << "counter divergence:\n";
  Row("GlobalLoads", A.GlobalLoads, B.GlobalLoads);
  Row("GlobalStores", A.GlobalStores, B.GlobalStores);
  Row("GlobalLoadLineMisses", A.GlobalLoadLineMisses,
      B.GlobalLoadLineMisses);
  Row("LocalLoads", A.LocalLoads, B.LocalLoads);
  Row("LocalStores", A.LocalStores, B.LocalStores);
  Row("PrivateAccesses", A.PrivateAccesses, B.PrivateAccesses);
  Row("Flops", A.Flops, B.Flops);
  Row("UserFunCalls", A.UserFunCalls, B.UserFunCalls);
  Row("LoopIterations", A.LoopIterations, B.LoopIterations);
  Row("Barriers", A.Barriers, B.Barriers);
  Row("SelectEvals", A.SelectEvals, B.SelectEvals);
  return OS.str();
}

/// Runs \p C on the tree-walking reference simulator, ocl::Executor.
/// It shares no execution code with the compiled ParallelExecutor that
/// codegen::runCompiled (and so the tuner) uses, which makes it the
/// independent side of oracle (d).
RunResult runReference(const Compiled &C, const BuiltProgram &B) {
  ocl::Executor Ex(C.K, B.Sizes);
  for (std::size_t I = 0, E = B.Flat.size(); I != E; ++I)
    Ex.bindInput(C.InputBufferIds[I], B.Flat[I]);
  Ex.run();
  RunResult R;
  R.Output = Ex.bufferContents(C.OutputBufferId);
  R.Counters = Ex.counters();
  return R;
}

/// The deliberately broken pad-merge for the harness self-test:
/// structurally identical to padPadMergeRule but the left/right
/// contributions of the two pads are crossed. Total length (and thus
/// the program type) is preserved, so only value-level differential
/// checking can catch it.
Rule buggyPadMergeRule() {
  Rule R;
  R.Name = "padPadMerge(buggy)";
  R.Apply = [](const ExprPtr &E) -> ExprPtr {
    if (E->getKind() != Expr::Kind::Call)
      return nullptr;
    const auto *Outer = dynCast<CallExpr>(E);
    if (Outer->getPrim() != Prim::Pad)
      return nullptr;
    const ExprPtr &InnerE = Outer->getArgs()[0];
    if (InnerE->getKind() != Expr::Kind::Call)
      return nullptr;
    const auto *Inner = dynCast<CallExpr>(InnerE);
    if (Inner->getPrim() != Prim::Pad)
      return nullptr;
    bool SameKind = Outer->Bdy.K == Inner->Bdy.K;
    bool Mergeable =
        SameKind && (Outer->Bdy.K == Boundary::Kind::Clamp ||
                     (Outer->Bdy.K == Boundary::Kind::Constant &&
                      Outer->Bdy.ConstVal == Inner->Bdy.ConstVal));
    if (!Mergeable)
      return nullptr;
    // BUG (intentional): swaps the inner pad's sides in the merge.
    return pad(add(Outer->PadL, Inner->PadR), add(Outer->PadR, Inner->PadL),
               Outer->Bdy, Inner->getArgs()[0]);
  };
  return R;
}

/// Per-dimension output extents at the concrete sizes; the layout
/// chain only affects the outermost dimension and only Pad ops change
/// its length. Empty when tiling is not applicable to the spec.
std::vector<std::int64_t> tiledOutputExtents(const ProgramSpec &S) {
  if (S.Tmpl != Template::Stencil && S.Tmpl != Template::ZipStencil)
    return {};
  if (S.WinStep != 1)
    return {};
  std::vector<std::int64_t> Out;
  for (unsigned D = 0; D != S.Dims; ++D) {
    std::int64_t Len = S.Extents[D];
    if (D == 0)
      for (const LayoutOp &Op : S.Layout)
        if (Op.K == LayoutOp::Kind::Pad)
          Len += Op.A + Op.B;
    Len += S.PadL + S.PadR;
    std::int64_t OutD = Len - S.WinSize + 1;
    if (OutD < 1)
      return {};
    Out.push_back(OutD);
  }
  return Out;
}

/// Picks the tile size for the tiled oracle: the largest v <= 8 that
/// *fits* every output dimension (v <= extent). Exact fits are no
/// longer required — the clamped remainder-tile lowering handles any
/// fitting v — so the picker prefers a v that leaves a remainder in
/// some dimension, exercising the tail-tile path whenever the spec's
/// extents allow it. Returns 0 when tiling is not applicable.
std::int64_t pickTileOutputs(const std::vector<std::int64_t> &Out) {
  if (Out.empty())
    return 0;
  std::int64_t Fallback = 0;
  for (std::int64_t V = 8; V >= 2; --V) {
    bool Fits = true;
    bool Remainder = false;
    for (std::int64_t O : Out) {
      Fits &= V <= O;
      Remainder |= O % V != 0;
    }
    if (!Fits)
      continue;
    if (Remainder)
      return V;
    if (!Fallback)
      Fallback = V;
  }
  return Fallback;
}

DiffResult discarded(std::string Why) {
  DiffResult R;
  R.Status = DiffStatus::Discarded;
  R.Detail = std::move(Why);
  return R;
}

DiffResult mismatch(std::string Report) {
  DiffResult R;
  R.Status = DiffStatus::Mismatch;
  R.Detail = std::move(Report);
  return R;
}

/// Oracle (f): compiles the lowered kernel to C with the host
/// compiler (through the shared KernelCache, so a campaign compiles
/// each distinct lowering once; the backend interior-specializes every
/// kernel it compiles) and requires the native output to be
/// bit-identical to the interpreter's. Mismatch and compile-failure
/// reports embed the emitted C source so shrunk artifacts are
/// self-contained. Returns nullopt when the oracle agrees.
std::optional<DiffResult> checkNative(const Program &Low, const Compiled &C,
                                      const std::string &Label,
                                      const std::vector<float> &RefFlat,
                                      const BuiltProgram &B,
                                      const DiffOptions &O) {
  try {
    native::NativeKernelPtr Kern = native::KernelCache::global().getOrCompile(
        ir::structuralHash(Low), C.K);
    native::NativeRunResult NR =
        native::runNative(C, *Kern, B.Flat, B.Sizes, O.NativeThreads);
    if (firstDivergence(RefFlat, NR.Output) != -1)
      return mismatch(mismatchReport(Label, RefFlat, NR.Output) +
                      "emitted C source:\n" + Kern->source());
  } catch (const native::CompileFailedError &Ex) {
    // The emitter produced C the host compiler rejects: an emitter
    // bug, reported (and shrunk) like any other oracle failure.
    return mismatch("oracle mismatch: " + Label + "\nnative compile failed: " +
                    Ex.what() + "\nemitted C source:\n" + Ex.Source);
  } catch (const native::NativeError &Ex) {
    return mismatch("oracle mismatch: " + Label +
                    "\nnative backend failed: " + Ex.what());
  }
  return std::nullopt;
}

/// splitmix64: decorrelates per-program sub-seeds from the campaign
/// seed so consecutive campaigns do not share prefixes.
std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

std::vector<Rule> lift::fuzz::fuzzRuleSet(bool InjectBug) {
  std::vector<Rule> Rules = stencilExplorationRules();
  Rules.push_back(transposeTransposeRule());
  if (InjectBug)
    for (Rule &R : Rules)
      if (R.Name == "padPadMerge")
        R = buggyPadMergeRule();
  return Rules;
}

DiffResult lift::fuzz::runDifferential(const ProgramSpec &S,
                                       const DiffOptions &O) {
  std::optional<BuiltProgram> B = buildProgram(S);
  if (!B)
    return discarded("spec not realizable");

  // (a) Reference interpreter.
  std::string Err;
  std::optional<interp::Value> Ref =
      interp::tryEvalProgram(B->P, B->Vals, B->Sizes, &Err);
  if (!Ref)
    return discarded("interpreter rejected the program: " + Err);
  std::vector<float> RefFlat;
  interp::flattenValue(*Ref, RefFlat);

  // (b) Random legal rewrite sequence, re-interpreted after each step.
  std::vector<Rule> Rules = fuzzRuleSet(O.InjectBug);
  Program Cur = B->P;
  std::vector<std::string> Applied;
  unsigned RewriteSkips = 0;
  unsigned BoundsUnproven = 0;
  unsigned TiledRemainder = 0;
  unsigned TiledIndivisible = 0;
  unsigned TiledFolded = 0;
  // Attaches the telemetry counts to whatever result the oracles
  // produce.
  auto Finish = [&](DiffResult R) {
    R.RewriteSkips = RewriteSkips;
    R.BoundsUnproven = BoundsUnproven;
    R.TiledRemainder = TiledRemainder;
    R.TiledIndivisible = TiledIndivisible;
    R.TiledFolded = TiledFolded;
    return R;
  };
  for (std::uint32_t Pick : S.RewritePicks) {
    std::vector<ApplicableRewrite> App =
        enumerateApplicableRewrites(Cur, Rules);
    if (App.empty())
      break;
    ApplicableRewrite Step = App[Pick % App.size()];
    Program Next = applyRewrite(Cur, Rules, Step);
    // Static refutation against the concrete sizes: a splitJoin whose
    // factor cannot divide its input length would only make the
    // program partial. Skipping just this step (instead of discarding
    // the whole case) keeps the remaining oracles running.
    if (analysis::refuteSplitDivisibility(Next, B->Sizes)) {
      ++RewriteSkips;
      obs::Registry::global().counter("fuzz.rewrite.skip.divisibility").inc();
      continue;
    }
    Cur = std::move(Next);
    Applied.push_back(Rules[Step.RuleIndex].Name);

    std::optional<interp::Value> Got =
        interp::tryEvalProgram(Cur, B->Vals, B->Sizes, &Err);
    if (!Got) {
      // A rule made the program partial at these concrete sizes (e.g.
      // splitJoin on a symbolic length that is not divisible). The
      // rules are only claimed to preserve semantics where both sides
      // are defined, so this is a discard, not a bug.
      std::string Names;
      for (const std::string &N : Applied)
        Names += (Names.empty() ? "" : " ") + N;
      return Finish(discarded("rewrite sequence [" + Names +
                              "] made the program partial: " + Err));
    }
    std::vector<float> GotFlat;
    interp::flattenValue(*Got, GotFlat);
    if (firstDivergence(RefFlat, GotFlat) != -1) {
      std::string Names;
      for (const std::string &N : Applied)
        Names += (Names.empty() ? "" : " ") + N;
      return Finish(mismatch(mismatchReport(
          "rewrite sequence [" + Names + "]", RefFlat, GotFlat)));
    }
  }

  // (c) Untiled lowering on the sequential reference simulator.
  std::string WhyNot;
  Program Low = lowerStencil(B->P, LoweringOptions(), &WhyNot);
  if (!Low)
    return Finish(discarded("untiled lowering does not apply: " + WhyNot));
  Compiled C = compileProgram(Low, "fuzz");
  RunResult Seq = runReference(C, *B);
  if (firstDivergence(RefFlat, Seq.Output) != -1)
    return Finish(mismatch(
        mismatchReport("sequential simulator vs interpreter", RefFlat,
                       Seq.Output)));

  // (d) The compiled engine must be bit-identical to the reference in
  // outputs *and* counters, at any job count.
  RunResult Par =
      runCompiled(C, B->Flat, B->Sizes, ocl::CacheConfig(), O.ParJobs);
  if (firstDivergence(Seq.Output, Par.Output) != -1)
    return Finish(mismatch(mismatchReport(
        "parallel simulator (jobs=" + std::to_string(O.ParJobs) +
            ") vs sequential",
        Seq.Output, Par.Output)));
  if (!countersEqual(Seq.Counters, Par.Counters))
    return Finish(mismatch(
        "oracle mismatch: parallel simulator (jobs=" +
        std::to_string(O.ParJobs) + ") counter determinism\n" +
        counterReport(Seq.Counters, Par.Counters)));

  // (f) Native executor: the dlopen()ed host-compiled C of the same
  // kernel must be bit-identical to the interpreter too.
  // Static bounds check of the lowered kernel at the concrete sizes.
  // Unproven accesses are prover-precision telemetry, not failures:
  // the oracles above already verified the runtime behavior.
  if (O.CheckBounds) {
    auto V = analysis::checkKernelBounds(C.K, &B->Sizes);
    BoundsUnproven += unsigned(V.size());
    obs::Registry::global().counter("fuzz.bounds.unproven").inc(V.size());
  }

  if (O.Native)
    if (std::optional<DiffResult> NR = checkNative(
            Low, C, "native executor vs interpreter", RefFlat, *B, O))
      return Finish(*NR);

  // (e) Tiled lowering, whenever a tile fits (exact fit NOT required:
  // the clamped lowering handles remainder tails).
  if (O.TryTiled) {
    std::vector<std::int64_t> OutExt = tiledOutputExtents(S);
    if (std::int64_t V = pickTileOutputs(OutExt)) {
      LoweringOptions TO;
      TO.Tile = true;
      TO.TileOutputs = V;
      // Odd sub-seeds stage their tiles in local memory, whose tile
      // fills the native backend forwards; a shape the local-memory
      // lowering does not take falls back to plain tiling.
      TO.UseLocalMem = S.Seed % 2 == 1;
      bool Remainder = false;
      for (std::int64_t OD : OutExt)
        Remainder |= OD % V != 0;
      std::string TWhy;
      Program TLow = lowerStencil(B->P, TO, &TWhy);
      if (!TLow && TO.UseLocalMem) {
        TO.UseLocalMem = false;
        TLow = lowerStencil(B->P, TO, &TWhy);
      }
      if (!TLow && TWhy.find("tile-indivisible") != std::string::npos) {
        // The picker judged this tile legal; a tile-indivisibility
        // refusal here means the lowering lost a case the clamped
        // scheme claims to support. Counted separately so campaigns
        // can assert it never happens.
        TiledIndivisible = 1;
        obs::Registry::global().counter("fuzz.tiled.indivisible").inc();
      }
      if (TLow) {
        if (Remainder) {
          TiledRemainder = 1;
          obs::Registry::global().counter("fuzz.tiled.remainder").inc();
        }
        Compiled TC = compileProgram(TLow, "fuzz_tiled");
        RunResult TSeq = runReference(TC, *B);
        if (firstDivergence(RefFlat, TSeq.Output) != -1)
          return Finish(mismatch(mismatchReport(
              "tiled lowering (v=" + std::to_string(V) +
                  ") vs interpreter",
              RefFlat, TSeq.Output)));
        RunResult TPar =
            runCompiled(TC, B->Flat, B->Sizes, ocl::CacheConfig(),
                        O.ParJobs);
        if (firstDivergence(TSeq.Output, TPar.Output) != -1 ||
            !countersEqual(TSeq.Counters, TPar.Counters))
          return Finish(mismatch(
              "oracle mismatch: tiled parallel simulator determinism\n" +
              counterReport(TSeq.Counters, TPar.Counters)));
        if (O.Native) {
          analysis::SpecStats SS;
          native::specializeForNative(TC.K, &SS);
          if (SS.TilesFolded) {
            TiledFolded = 1;
            obs::Registry::global().counter("fuzz.tiled.folded").inc();
          }
          if (std::optional<DiffResult> NR = checkNative(
                  TLow, TC,
                  "tiled native executor (v=" + std::to_string(V) +
                      (TO.UseLocalMem ? ", local" : "") + ") vs interpreter",
                  RefFlat, *B, O))
            return Finish(*NR);
        }
      }
    }
  }

  DiffResult R;
  R.Status = DiffStatus::Ok;
  return Finish(R);
}

CampaignStats lift::fuzz::runCampaign(std::uint64_t Seed, unsigned Count,
                                      const CampaignOptions &O) {
  CampaignStats Stats;
  for (unsigned I = 0; I != Count; ++I) {
    std::uint64_t SubSeed = splitmix64(Seed + I);
    ProgramSpec S = generateSpec(SubSeed);
    DiffResult R = runDifferential(S, O.Diff);
    Stats.RewriteSkips += R.RewriteSkips;
    Stats.BoundsUnproven += R.BoundsUnproven;
    Stats.TiledRemainder += R.TiledRemainder;
    Stats.TiledIndivisible += R.TiledIndivisible;
    Stats.TiledFolded += R.TiledFolded;
    switch (R.Status) {
    case DiffStatus::Ok:
      ++Stats.Ok;
      break;
    case DiffStatus::Discarded:
      ++Stats.Discarded;
      break;
    case DiffStatus::Mismatch: {
      ++Stats.Mismatches;
      CampaignFailure F;
      F.Original = S;
      F.Detail = R.Detail;
      F.Minimal = O.Shrink ? shrinkSpec(S, O.Diff) : S;
      if (std::optional<BuiltProgram> MB = buildProgram(F.Minimal))
        F.MinimalPrims = countPrims(MB->P);
      if (!O.ArtifactDir.empty()) {
        std::string Path = O.ArtifactDir + "/liftfuzz-" +
                           std::to_string(SubSeed) + ".txt";
        std::ostringstream OS;
        OS << "liftfuzz mismatch artifact\n";
        OS << "campaign-seed: " << Seed << "\n";
        OS << "replay: liftfuzz --seed " << Seed << " --count " << Count
           << (O.Diff.InjectBug ? " --self-test" : "") << "\n\n";
        OS << "== failing spec (sub-seed " << SubSeed << ") ==\n"
           << describeSpec(S);
        if (std::optional<BuiltProgram> OB = buildProgram(S)) {
          OS << "program: " << toString(OB->P) << "\n";
          OS << "structural-hash (per-process): 0x" << std::hex
             << structuralHash(OB->P->getBody()) << std::dec << "\n";
        }
        OS << "\n== divergence ==\n" << R.Detail << "\n";
        OS << "== minimal reproducer ==\n" << describeSpec(F.Minimal);
        if (std::optional<BuiltProgram> MB = buildProgram(F.Minimal)) {
          OS << "program: " << toString(MB->P) << "\n";
          OS << "primitives: " << countPrims(MB->P) << "\n";
        }
        if (std::FILE *FP = std::fopen(Path.c_str(), "w")) {
          std::string Text = OS.str();
          std::fwrite(Text.data(), 1, Text.size(), FP);
          std::fclose(FP);
          F.ArtifactPath = Path;
        }
      }
      Stats.Failures.push_back(std::move(F));
      break;
    }
    }
  }
  return Stats;
}
