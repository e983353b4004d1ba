// Per-function effect summaries for purity inference.
//
// Where the paper's verifier (§3.2) checks *declared* pure functions
// against the keyword's rules, this pass looks at an arbitrary unannotated
// definition and answers: what could this body do that another thread
// might observe? The summary is intraprocedural — callees are recorded by
// name and resolved by the fixpoint in inference.cpp.
//
// The write rules are deliberately conservative. A store is locally
// harmless only when its target provably lives in function-local storage:
// a local scalar/array, or a pointer whose provenance (local_pointers.h,
// the analysis the §3.2 verifier and the chain share) is Heap or
// LocalStorage. Anything that might reach caller-owned or global memory
// is an effect.
#pragma once

#include <set>
#include <string>

#include "ast/decl.h"
#include "purity/local_pointers.h"
#include "sema/symbols.h"
#include "support/source_location.h"

namespace purec {

/// Effect model of a known external (libc) function — the growth path
/// beyond the all-pure seed hashset: inference no longer has to pessimize
/// every extern it recognizes.
enum class ExternEffectKind : std::uint8_t {
  /// Reads its pointer arguments, writes nothing (strlen, memcmp).
  ReadOnly,
  /// Writes through argument 0 only — a bounded, caller-visible-iff-the-
  /// destination-is-foreign write (memcpy, memset, memmove, snprintf).
  /// Locally harmless when arg0 provably targets function-local storage.
  WritesArg0,
  /// Writes through argument 1 only — the strtol/strtod end-pointer
  /// out-parameter. Harmless when endptr is a null constant (no write
  /// happens) or provably targets function-local storage (&local, a
  /// local char**). errno on range errors is outside the modeled
  /// dialect: purec-emitted programs never read errno, and a body that
  /// did would be rejected as an unknown-global read.
  WritesArg1,
};

struct ExternEffect {
  ExternEffectKind kind;
};

/// Database lookup; nullptr when the function is not modeled (callers
/// fall back to the pessimistic unknown-external rule).
[[nodiscard]] const ExternEffect* extern_effect(const std::string& name);

/// Why a call to writing extern `name` (of `kind` WritesArg0 or
/// WritesArg1) inside the function `pointers` was computed for may write
/// where the caller or another thread can observe it; empty when its
/// destination provably targets function-local storage. Shared with the
/// declared-pure verifier (§3.2), so a body inference would accept
/// verifies identically when it carries the `pure` keyword.
[[nodiscard]] std::string extern_write_violation(
    const CallExpr& call, const std::string& name, ExternEffectKind kind,
    const LocalPointers& pointers);

struct EffectSummary {
  std::string function;

  /// No intraprocedural side-effects; call edges still pending.
  bool pure_locally = true;
  /// First local impurity, human-readable ("writes to global 'counter'").
  /// Empty when pure_locally.
  std::string impurity_reason;
  SourceLocation impurity_loc;

  /// Named callees (resolved against the call graph by inference).
  std::set<std::string> callees;
  /// Calls through a function pointer: unresolvable, pessimized.
  bool has_indirect_call = false;

  /// Globals the body reads directly. For an inferred-pure function these
  /// become implicit call arguments in the Listing-5 scop rule: a loop
  /// that writes one of them while calling the function is rejected.
  std::set<std::string> global_reads;

  /// Database-modeled externs the body calls (resolved here, never
  /// pessimized callee edges). Downstream analyses with stricter needs
  /// than purity consult this — memoization rejects locale-sensitive
  /// formatting (snprintf) that purity tolerates.
  std::set<std::string> extern_calls;

  /// Informational classification bits (diagnostics, tests).
  bool writes_global = false;
  bool writes_through_param = false;
  bool writes_unknown_pointer = false;
  bool allocates = false;
  bool frees = false;
};

/// Computes the summary for one function definition. `scope` must be the
/// symbol info for `fn`. Honors PurityOptions::allow_malloc_free via
/// `allow_malloc_free` (when false, malloc/calloc/free count as external
/// callees instead of local allocation).
[[nodiscard]] EffectSummary compute_effects(const FunctionDecl& fn,
                                            const FunctionScopeInfo& scope,
                                            bool allow_malloc_free = true);

}  // namespace purec
