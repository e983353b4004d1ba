// Loop code generation for a transformed scop (the CLooG counterpart):
// produces a new AST loop nest scanning the transformed domain, with
// rectangular tiling of the permutable band, `floord`/`ceild`/min/max
// bounds, OpenMP pragma on the outermost parallel loop, and (under
// CodegenOptions::simd) a SIMD pragma on the innermost parallel loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ast/stmt.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "support/omp_schedule.h"

namespace purec::poly {

struct CodegenOptions {
  bool parallelize = true;
  /// Tile the permutable band when its size is >= 2.
  bool tile = true;
  std::int64_t tile_size = 32;
  /// Emit `#pragma omp simd` on the innermost parallel point loop (the
  /// vectorization PluTo-SICA enforces; the chain also sets it in the
  /// default mode when the nest's pure callees are loop-free).
  bool simd = false;
  /// Schedule for the parallel pragma, normalized into clause text here
  /// (e.g. schedule(dynamic,1), the satellite fix in §4.3.3). Default =
  /// no clause. Parsed and validated at the boundary (ScheduleSpec::parse)
  /// so malformed clauses can never reach the emitted pragma.
  ScheduleSpec schedule;
  /// Privatized scalars for the classic path: generate_code appends
  /// `private(...)` with these names to the parallel and simd pragmas
  /// (the chain marks their dependences is_private before scheduling;
  /// region scheduling computes its own set instead).
  std::vector<std::string> privatized;
};

/// The helper macros the generated code depends on; the chain prepends
/// this once per output file (PluTo does the same with floord/ceild).
[[nodiscard]] const std::string& codegen_prelude();

/// True when the (pre-tiling) domain couples two iterators in one bound —
/// a triangular/trapezoidal nest whose inner trip count varies with the
/// outer iterator. Such scops get `schedule(guided,N)` by default when the
/// user passes no --schedule (static chunks would load-imbalance; see
/// ROADMAP runtime follow-ups).
[[nodiscard]] bool domain_is_imbalanced(const Scop& scop);

/// How the generator rewrote the scop's iterators: original iterator j
/// equals `iterator_replacement[j]` (an affine combination over `names`)
/// plus `iterator_constant[j]` (strided loops fold their lower bound into
/// the replacement; empty means all zero). The chain reuses this to fix
/// up iterators inside reinserted pure calls (paper Listing 8:
/// `dot(... A[t1] ...)`).
struct IteratorSubstitution {
  std::vector<std::string> names;             // generated variable names
  std::vector<IntVec> iterator_replacement;   // one row per old iterator
  std::vector<std::int64_t> iterator_constant;
};

/// Generates the transformed loop nest. The returned compound statement
/// contains the pragmas and loops and is a drop-in replacement for the
/// scop's original outermost ForStmt. Returns nullptr when bounds cannot
/// be derived (callers leave the original nest untouched). When the
/// band is tiled, parallel in both outer tile dimensions, and the second
/// tile loop's bounds do not read the first tile iterator, the parallel
/// pragma carries `collapse(2)`; `collapse_out` receives that count (0
/// when the pragma has no collapse clause). `schedule_out` receives the
/// schedule clause printed on the parallel pragma: the user's spec, or
/// `schedule(guided,4)` for an imbalanced domain when there is none;
/// it is left untouched when no parallel pragma is printed or no nest is
/// returned. `simd_loops_out` receives the number of loops that qualify
/// for `#pragma omp simd` (0 or 1: the innermost point loop, when it is
/// parallel, not the outermost point loop, and not the loop that takes
/// the parallel pragma); they carry it only under `options.simd`.
[[nodiscard]] StmtPtr generate_code(const Scop& scop,
                                    const Transform& transform,
                                    const CodegenOptions& options,
                                    IteratorSubstitution* substitution_out =
                                        nullptr,
                                    std::size_t* collapse_out = nullptr,
                                    std::string* schedule_out = nullptr,
                                    std::size_t* simd_loops_out = nullptr);

/// What schedule_region decided, for the chain's report.
struct RegionSchedule {
  /// Indices of loops that received `#pragma omp parallel for`, in
  /// emission order (a loop index can repeat across fission groups).
  std::vector<std::size_t> parallel_loops;
  /// True when the nest was distributed into more than one loop.
  bool fissioned = false;
  /// Fission groups emitted (1 when the nest stayed whole).
  std::size_t groups = 0;
  /// Groups that received at least one parallel pragma.
  std::size_t parallel_groups = 0;
  /// Scalars listed in `private(...)` clauses (first-use order).
  std::vector<std::string> privatized;
  /// Schedule clause on the first parallel pragma ("" = none).
  std::string schedule_clause;
  /// Parallel leaf loops (in the emitted groups) that did not take the
  /// parallel pragma: they qualify for `#pragma omp simd` and carry it
  /// only under `options.simd`.
  std::size_t simd_loops = 0;
  /// Guards folded into the bounds of the loop around them (an `if` on
  /// the loop's own iterator that was the loop's whole body).
  std::size_t guards_folded = 0;
};

/// Region scheduling for `Scop::region_shaped` scops (guards, imperfect
/// nests, iterator-dependent strided origins) and for classic nests the
/// hyperplane path left serial. Statements keep their depth — no
/// reordering, no tiling — but the nest is restructured:
///
///  * Loops whose non-exempt dependences all vanish get `#pragma omp
///    parallel for` at the outermost legal position; under
///    `options.simd` parallel leaf loops get `#pragma omp simd`.
///  * A loop serialized only by a written-before-read function-scope
///    scalar in `privatizable` (the chain has already proven it dead
///    after the nest) parallelizes with the scalar in `private(...)`.
///  * When no loop is parallel, the nest is distributed by dependence
///    SCC (loop fission): each group becomes its own copy of the nest,
///    pruned to the group's statements, and parallel groups take the
///    pragma while serial ones stay as they were.
///  * A unit-step loop that declares its iterator and whose pruned body
///    is one `if` without else loses the guard's conjuncts on its own
///    iterator to its bounds (`for (i = 0; i < n; i++) if (i > 0) S`
///    becomes `for (i = 1; i < n; i++) S`); a guard whose then-branch was
///    pruned away tests its negation, folded the same way when convex.
///
/// The guided-by-default gate is evaluated per pragma'd loop over the
/// statements actually under it in its group, so a fissioned-off
/// rectangular loop no longer inherits a triangular sibling's
/// `schedule(guided,4)`. Returns nullptr when nothing can be
/// parallelized (callers leave the nest untouched and report why).
[[nodiscard]] StmtPtr schedule_region(
    const Scop& scop, const std::vector<Dependence>& deps,
    const CodegenOptions& options,
    const std::vector<std::string>& privatizable,
    RegionSchedule* result = nullptr);

/// Replaces occurrences of the old iterator identifiers in `expr` with
/// their affine replacements (exposed for the chain's call reinsertion).
void apply_iterator_substitution(ExprPtr& expr,
                                 const std::vector<std::string>& old_names,
                                 const IteratorSubstitution& substitution);

}  // namespace purec::poly
