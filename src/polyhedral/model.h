// The polyhedral program model and its extraction from AST loop nests
// (the Clan/OpenScop counterpart in the paper's chain).
//
// Extraction is a *region walk*: starting at an outermost `for`, it
// descends through nested loops, affine `if` guards, and compound blocks,
// giving every assignment statement its own iteration domain (its
// enclosing loops' bounds plus every guard on its path). Two shapes come
// out of the walk:
//
//  * a *classic band* — one perfectly nested chain, every statement at the
//    innermost level, no guards, parameter-affine strided origins. These
//    keep the shared `Scop::domain` and go through the full PluTo-style
//    reschedule/tile/regenerate pipeline, exactly as before.
//  * a *region* (`Scop::region_shaped`) — imperfect nesting (statements
//    before/between/after an inner loop), affine `if`/`else` guards,
//    sibling loops, or iterator-dependent strided lower bounds
//    (`for (j = i; j < n; j += 2)`). These are analyzed with
//    per-statement domains and lowered by annotating the original nest
//    with OpenMP pragmas on provably parallel loops (no reordering).
//
// Remaining model restrictions: `for` loops (the chain canonicalizes
// affine `while` loops into `for` before extraction) with constant
// positive step, bounds affine in enclosing iterators and symbolic
// parameters (conjunctions `i < n && i < m` fold into the domain as
// min/max bounds), chain depth <= 4, at most 8 loops per region, bodies
// made of assignment statements with affine subscripts, guards affine and
// conjunctive (negated `else` halves included; `x != y` guards only on
// the `else` side where the negation is the affine equality). A flattened
// subscript `A[e1 * P + e2]` (P a loop-invariant parameter, e1 and e2
// affine) is accepted as the two subscripts `A[e1][e2]` when every
// statement domain that touches it proves `0 <= e2 < P` and every access
// to `A` in the region splits by the same P (Grosser et al.'s
// delinearization, without the optimistic run-time check); otherwise it
// stays non-affine and the nest is rejected. Only single-subscript bases
// (`T*` or 1-D arrays) qualify: a row-pointer `T**` base indexed twice
// stays flat. Pure
// function calls have already been substituted by `tmpConst_*`
// identifiers when extraction runs, which is exactly why the paper's
// chain can feed these nests to PluTo.
//
// Accesses are keyed on the base *name* (`Access::array`): two names are
// two objects. Extraction does not know what a pointer points into; the
// chain rebases accesses through the local pointers
// purity/local_pointers.h resolves before dependence analysis and keeps
// nests with unresolvable writes serial (transform/pure_chain.cpp).
// Pointer parameters, globals and block-scope statics stay distinct
// objects, unchecked.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ast/stmt.h"
#include "polyhedral/constraint.h"
#include "support/diagnostics.h"

namespace purec::poly {

/// Affine form over [iterators..., parameters..., 1]. Positional: the
/// owning Scop defines the variable order.
struct AffineForm {
  IntVec coeffs;             // size = iterators + parameters
  std::int64_t constant = 0;

  [[nodiscard]] std::string to_string(
      const std::vector<std::string>& names) const;
};

enum class AccessKind : std::uint8_t { Read, Write };

/// Associative reduction operators recognized on scalar accumulators.
/// `Call` marks a user-declared pure binary function (`s = f(s, e)`):
/// recognized and reported, but not exempted from the carried-dependence
/// verdict because OpenMP has no clause (and the runtime no identity) for
/// an arbitrary combiner.
enum class ReductionOp : std::uint8_t {
  None,
  Add,
  Sub,
  Mul,
  Min,
  Max,
  Call,
};

/// Operators whose accumulator self-dependence may be exempted from the
/// parallelism verdict (they map onto an OpenMP reduction clause).
[[nodiscard]] constexpr bool reduction_exemptible(ReductionOp op) noexcept {
  return op == ReductionOp::Add || op == ReductionOp::Sub ||
         op == ReductionOp::Mul || op == ReductionOp::Min ||
         op == ReductionOp::Max;
}

/// The OpenMP clause token for an exemptible operator ("+", "-", "*",
/// "min", "max"); empty for None/Call.
[[nodiscard]] const char* reduction_token(ReductionOp op) noexcept;

struct Access {
  AccessKind kind = AccessKind::Read;
  std::string array;                  // base variable name
  std::vector<AffineForm> subscripts; // empty for scalars
  /// Non-empty when the source wrote one flattened subscript
  /// `e1 * P + e2` that the model splits into `[e1][e2]`: names P.
  /// Codegen still prints the source subscript.
  std::string delinearized_by;
};

/// One statement instance set: its accesses, its textual position, and —
/// in the region model — its own iteration domain and enclosing loop
/// chain.
struct ScopStatement {
  const Stmt* ast = nullptr;   // original AST statement (not owned)
  std::vector<Access> accesses;
  /// Global textual (pre-order) position inside the region: statements
  /// with equal common-loop iterations execute in `position` order.
  std::size_t position = 0;
  /// This statement's iteration domain over the scop's full
  /// [iterators..., parameters...] space: bounds of its enclosing chain
  /// plus every affine guard on its path. Zero dimensions (hand-built
  /// scops in tests) means "use the scop's shared domain".
  ConstraintSystem domain{0};
  /// Enclosing loops as indices into Scop::iterators, outermost first.
  /// Empty means the classic full chain [0, depth).
  std::vector<std::size_t> loops;
  /// True when an `if` guard contributed constraints to `domain`.
  bool guarded = false;
  /// Non-None when the statement is a recognized associative reduction
  /// `s (op)= e` on scalar `reduction_accumulator`, with `e` not reading
  /// `s`. Demoted back to None when `s` is accessed anywhere else in the
  /// region (the accumulator escapes the update).
  ReductionOp reduction_op = ReductionOp::None;
  std::string reduction_accumulator;
  /// For ReductionOp::Min/Max/Call: the called combiner's name
  /// (e.g. "fminf"); empty for plain operator shapes.
  std::string reduction_callee;
};

/// One `if` of a region with its condition in the model's affine terms,
/// over the scop's full space: what a code generator needs to fold the
/// guard into the bounds of the loop around it.
struct ScopGuard {
  const IfStmt* ast = nullptr;  // original AST statement (not owned)
  /// One entry per top-level `&&` conjunct of the condition, in
  /// guard_conjuncts order: the constraints the conjunct lowers to, or
  /// nullopt when it splits into several convex pieces (`||`, `!=`).
  std::vector<std::optional<std::vector<Constraint>>> conjuncts;
  /// The negated condition's constraints when the negation is convex.
  std::optional<std::vector<Constraint>> negation;
};

/// The top-level `&&` conjuncts of a guard condition, left to right.
[[nodiscard]] std::vector<const Expr*> guard_conjuncts(const Expr& cond);

/// A static control part: a loop region rooted at one outermost `for`.
struct Scop {
  std::vector<std::string> iterators;   // all region loops, pre-order
  std::vector<std::string> parameters;  // symbolic sizes
  /// Shared domain over [iterators..., parameters...]: all loop-bound
  /// constraints. For a classic band this is the statements' exact
  /// domain (guards don't exist there); region statements refine it
  /// per-statement.
  ConstraintSystem domain{0};
  std::vector<ScopStatement> statements;
  const ForStmt* root = nullptr;        // original outermost loop
  /// Non-unit-stride normalization: source iterator i_j sweeps
  /// `origins[j] + strides[j] * t_j` where t_j is the level-j domain
  /// variable (t_j >= 0). Unit-stride levels keep the identity map
  /// (stride 1, zero origin). Origins affine over parameters only keep
  /// the scop classic; an origin that references an enclosing iterator
  /// (`for (j = i; ...; j += 2)`) forces the region path. Empty vectors
  /// (scops built by hand in tests) mean all-identity.
  std::vector<std::int64_t> strides;
  std::vector<AffineForm> origins;
  /// Region tree: parent loop of iterator j (npos for the root) and the
  /// AST node of each loop, both in the pre-order used by `iterators`.
  std::vector<std::size_t> loop_parents;
  std::vector<const ForStmt*> loop_asts;
  /// True when the walk found guards, imperfect nesting, sibling loops,
  /// or an iterator-dependent strided origin — the scop is then analyzed
  /// with per-statement domains and lowered by region annotation instead
  /// of the classic reschedule+regenerate path.
  bool region_shaped = false;
  /// Human-readable notes about reduction shapes that were recognized but
  /// demoted (accumulator read elsewhere, Call combiner) or about scan
  /// patterns (`a[i] = a[i-1] + e`) detected in the nest. Surfaced in the
  /// chain's serial verdict so the reason names the pattern instead of a
  /// generic carried dependence.
  std::vector<std::string> reduction_notes;
  /// Bases whose flattened `e1 * P + e2` subscripts were split into two
  /// dimensions, in first-access order.
  std::vector<std::string> delinearized;
  /// Every `if` in the region that guards at least one statement, in
  /// pre-order.
  std::vector<ScopGuard> guards;
  /// Iterators and parameters no generated loop bound may read, set by
  /// the chain: every name it could not confirm as a signed integer
  /// variable. A substituted pure call's placeholder is one (the model
  /// takes it as loop-invariant, but the call may read an iterator or
  /// state the body writes); so are unsigned, floating-point and typedef'd
  /// scalars, which purec_min/purec_max would compare under other
  /// conversions than the source's test.
  std::vector<std::string> opaque_names;

  [[nodiscard]] std::size_t depth() const noexcept {
    return iterators.size();
  }
  [[nodiscard]] std::vector<std::string> space_names() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Extraction outcome. `failure_reason` is set when the nest does not fit
/// the model (the chain then leaves the loop untouched, like PluTo would);
/// the chain surfaces it as the per-SCoP rejection reason.
struct ExtractionResult {
  std::optional<Scop> scop;
  std::string failure_reason;
  /// Where the rejection bites: the offending statement or loop header
  /// when a pass can point at one, else the nest's root loop. Valid
  /// whenever `failure_reason` is set, so report entries are clickable.
  SourceLocation failure_loc;

  [[nodiscard]] bool ok() const noexcept { return scop.has_value(); }
};

/// Extracts the polyhedral model from `loop` by walking its region.
[[nodiscard]] ExtractionResult extract_scop(const ForStmt& loop);

/// The statement's effective domain/loop chain with the hand-built-scop
/// fallbacks applied (shared domain, full chain).
[[nodiscard]] const ConstraintSystem& statement_domain(
    const Scop& scop, const ScopStatement& stmt);
[[nodiscard]] std::vector<std::size_t> statement_loops(
    const Scop& scop, const ScopStatement& stmt);

}  // namespace purec::poly
