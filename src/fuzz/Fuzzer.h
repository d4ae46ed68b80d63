//===- Fuzzer.h - Differential fuzzing of the stencil pipeline -*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seed-driven differential fuzzer for the whole
/// compilation pipeline. Each seed expands into a random *well-typed*
/// stencil program (1D/2D/3D compositions of map, zip, slide, pad with
/// all four boundary kinds, split/join, transpose and reduce, with
/// sizes drawn to hit divisibility edge cases) which is then executed
/// through independent oracles:
///
///   (a) the reference interpreter,
///   (b) random legal rewrite sequences re-interpreted,
///   (c) lowering -> the sequential NDRange simulator,
///   (d) the parallel simulator at several job counts,
///   (e) tiled lowering through both simulator engines when it fits
///       (odd sub-seeds stage the tiles in local memory),
///   (f) optionally (DiffOptions::Native) the native executor: the
///       kernel emitted as C, compiled with the host compiler,
///       dlopen()ed and run for real,
///
/// asserting bit-identical outputs everywhere and bit-identical
/// execution counters between the two simulator engines. A mismatch is
/// shrunk to a minimal reproducer by a greedy spec-level shrinker and
/// written out as a replayable artifact. This is the correctness
/// backstop behind the paper's claim that every rewrite and lowering
/// is semantics-preserving.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_FUZZ_FUZZER_H
#define LIFT_FUZZ_FUZZER_H

#include "interp/Interpreter.h"
#include "ir/Expr.h"

#include <optional>
#include <string>
#include <vector>

namespace lift {
namespace rewrite {
struct Rule;
}
namespace fuzz {

//===----------------------------------------------------------------------===//
// Program specifications
//===----------------------------------------------------------------------===//

/// The overall shape of a generated program.
enum class Template {
  Pointwise,    ///< mapNd(scale, layout(A))
  Stencil,      ///< mapNd(reduceWindow, slideNd(padNd(layout(A))))
  ZipPointwise, ///< mapNd(add . gets, zipNd(layout(A), B))
  ZipStencil,   ///< mapNd over zipNd of two same-geometry neighborhoods
};

/// One data-layout operation applied to an input before the template
/// consumes it. All but Pad are identities on the value.
struct LayoutOp {
  enum class Kind {
    Pad,          ///< pad(A, B, Bdy, x) on the outermost dimension
    SplitJoin,    ///< join(split(A, x)); requires A | outer length
    SlideJoin,    ///< join(slide(A, A, x)); requires A | outer length
    TransposePair ///< transpose(transpose(x)); 2D+ only
  };
  Kind K = Kind::Pad;
  std::int64_t A = 0, B = 0;
  ir::Boundary Bdy = ir::Boundary::clamp();
};

/// A complete, replayable description of one fuzz case: the program
/// shape, the input sizes/boundaries, and which random rewrites to
/// apply. Everything the differential checker does is a deterministic
/// function of this struct.
struct ProgramSpec {
  std::uint64_t Seed = 0; ///< sub-seed this spec was generated from
  unsigned Dims = 1;
  std::vector<std::int64_t> Extents; ///< per dimension, outermost first
  bool SymbolicOuter = false; ///< bind the outermost extent at runtime
  Template Tmpl = Template::Stencil;
  unsigned NumInputs = 1;
  // Stencil window, uniform across dimensions (slideNd's shape).
  std::int64_t WinSize = 3, WinStep = 1;
  std::int64_t PadL = 1, PadR = 1;
  std::vector<ir::Boundary> PerDimBdy; ///< boundary kind per dimension
  bool UseMax = false; ///< max-reduce windows instead of sum
  std::vector<LayoutOp> Layout; ///< applied to input 0
  std::vector<std::uint32_t> RewritePicks; ///< oracle (b) choices
};

/// Renders a spec as stable, human-readable key/value lines (used in
/// artifacts and test diagnostics).
std::string describeSpec(const ProgramSpec &S);

/// Expands \p SubSeed deterministically into a well-typed spec. Equal
/// seeds yield equal specs across runs and platforms that share the
/// standard mt19937_64 distributions.
ProgramSpec generateSpec(std::uint64_t SubSeed);

/// A spec realized as an executable case: the typed program, concrete
/// size bindings, and per-input data as both interpreter values and
/// flat simulator buffers (identical contents).
struct BuiltProgram {
  ir::Program P;
  interp::SizeEnv Sizes;
  std::vector<std::vector<float>> Flat;
  std::vector<interp::Value> Vals;
};

/// Materializes a spec; nullopt when the spec is not realizable (the
/// shrinker proposes such specs; the generator never does).
std::optional<BuiltProgram> buildProgram(const ProgramSpec &S);

/// Number of non-UserFunCall primitive calls in the program body — the
/// "primitive count" quoted by reproducer-size guarantees (map + pad +
/// pad is 3 primitives regardless of the lambdas' scalar arithmetic).
unsigned countPrims(const ir::Program &P);

//===----------------------------------------------------------------------===//
// Differential checking
//===----------------------------------------------------------------------===//

/// The rewrite rules oracle (b) samples from. With \p InjectBug the
/// pad-merge rule is replaced by a deliberately wrong variant that
/// swaps the side contributions (a type-preserving sign flip); the
/// harness's self-test asserts the fuzzer catches and shrinks it.
std::vector<rewrite::Rule> fuzzRuleSet(bool InjectBug = false);

struct DiffOptions {
  unsigned ParJobs = 8;   ///< job count for the parallel-engine oracle
  bool TryTiled = true;   ///< add a tiled-lowering oracle when it fits
  bool InjectBug = false; ///< self-test mode: use the broken rule set
  /// Oracle (f): compile every lowered kernel to C with the host
  /// compiler (native/NativeRunner.h) and require its output to be
  /// bit-identical to the interpreter. Mismatch reports embed the
  /// emitted C source. Callers should gate on probeToolchain().
  bool Native = false;
  unsigned NativeThreads = 2; ///< OpenMP threads for the native oracle
  /// Statically bounds-check every lowered kernel against the spec's
  /// concrete sizes (analysis/RangeAnalysis.h). Accesses the prover
  /// cannot discharge are *counted* (fuzz.bounds.unproven), not
  /// failed: the differential oracles already verify the runtime
  /// behavior, so this tracks prover precision, not correctness.
  bool CheckBounds = false;
};

enum class DiffStatus {
  Ok,        ///< every oracle agreed bit-identically
  Discarded, ///< spec not realizable / program partial; nothing checked
  Mismatch   ///< two oracles disagreed: a real (or injected) bug
};

struct DiffResult {
  DiffStatus Status = DiffStatus::Ok;
  /// Discard reason, or a full mismatch report (oracle name, first
  /// divergent element, both outputs).
  std::string Detail;
  /// Rewrite steps statically refuted against the concrete sizes
  /// (splitJoin divisibility) and skipped — the rest of the sequence
  /// still ran, unlike a discard, which checks nothing.
  unsigned RewriteSkips = 0;
  /// DiffOptions::CheckBounds only: kernel accesses the static bounds
  /// prover could not discharge at the concrete sizes.
  unsigned BoundsUnproven = 0;
  /// TryTiled only: 1 when the tiled oracle ran with a tile that does
  /// not divide some output extent (a clamped remainder tile was
  /// exercised end to end).
  unsigned TiledRemainder = 0;
  /// TryTiled only: 1 when a tile the picker judged legal was refused
  /// by the tiled lowering as tile-indivisible. Always a bug in either
  /// the picker or the lowering; campaigns are expected to report 0.
  unsigned TiledIndivisible = 0;
  /// TryTiled and Native only: 1 when the native backend folded the
  /// tiled kernel it ran into a grid nest (analysis/TileFold.h).
  unsigned TiledFolded = 0;
};

/// Runs one spec through all oracles. Deterministic: equal specs give
/// equal results.
DiffResult runDifferential(const ProgramSpec &S, const DiffOptions &O);

//===----------------------------------------------------------------------===//
// Shrinking and campaigns
//===----------------------------------------------------------------------===//

/// Greedily minimizes a failing spec: drops rewrites and layout ops,
/// switches templates toward Pointwise (folding the stencil pad into
/// the layout chain so pad-related failures survive), reduces
/// dimensions, extents, windows and boundary variety — accepting each
/// step only if the candidate still mismatches under \p O. Returns the
/// smallest still-failing spec found.
ProgramSpec shrinkSpec(const ProgramSpec &Failing, const DiffOptions &O);

struct CampaignFailure {
  ProgramSpec Original;
  ProgramSpec Minimal;
  unsigned MinimalPrims = 0; ///< countPrims of the shrunk program
  std::string Detail;        ///< mismatch report of the original
  std::string ArtifactPath;  ///< written file, when an artifact dir is set
};

struct CampaignStats {
  unsigned Ok = 0;
  unsigned Discarded = 0;
  unsigned Mismatches = 0;
  /// Total rewrite steps skipped after static divisibility refutation
  /// (the programs themselves still completed, counted under Ok).
  unsigned RewriteSkips = 0;
  /// Total statically-unproven kernel accesses (CheckBounds only).
  unsigned BoundsUnproven = 0;
  /// Specs whose tiled oracle exercised a clamped remainder tile.
  unsigned TiledRemainder = 0;
  /// Specs whose tiled lowering refused a tile the picker judged
  /// legal (tile-indivisible). Expected to be 0 in every campaign.
  unsigned TiledIndivisible = 0;
  /// Specs whose tiled native kernel the backend folded into a grid
  /// nest.
  unsigned TiledFolded = 0;
  std::vector<CampaignFailure> Failures;
};

struct CampaignOptions {
  DiffOptions Diff;
  bool Shrink = true;
  std::string ArtifactDir; ///< empty: do not write artifacts
};

/// Runs \p Count specs derived from \p Seed (one splitmix64 sub-seed
/// each), shrinking and writing one artifact per mismatch.
CampaignStats runCampaign(std::uint64_t Seed, unsigned Count,
                          const CampaignOptions &O);

} // namespace fuzz
} // namespace lift

#endif // LIFT_FUZZ_FUZZER_H
