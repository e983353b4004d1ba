// Memoizability analysis — the `--memoize` subsystem's front half.
//
// Purity (declared + verified, or inferred) certifies that a call's result
// depends only on its inputs; memoization additionally needs those inputs
// to be *enumerable as a bounded key*. A pure function is classified
// memoizable when:
//   * it has a definition in the unit (the thunk must call it and the
//     analysis must see its whole transitive read set);
//   * every parameter is a by-value arithmetic scalar — a pointer
//     parameter has no statically known read extent, so its pointee
//     cannot join the key;
//   * it returns an arithmetic scalar that fits a 64-bit cache word
//     (long double is rejected);
//   * its transitive global-read set is a *bounded snapshot*: every read
//     global is an arithmetic scalar (arrays/pointers would make the
//     snapshot unbounded) and the set is small enough to key cheaply;
//   * it is free of other nondeterminism: no allocation (addresses vary
//     run to run and could leak into the scalar result via casts), no
//     callee outside the analyzed closure or the standard seed set, and
//     no call to a floating-point-environment-sensitive routine
//     (rint & friends observe the dynamic rounding mode).
//
// Every rejected function keeps a human-readable reason, mirroring the
// inference subsystem's provenance reporting.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/decl.h"
#include "purity/purity_checker.h"
#include "sema/symbols.h"

namespace purec {

/// Observed per-thunk traffic, parsed back out of the memo counter dump
/// of a `--memoize --instrument` binary
/// (`purec-memo[NAME] hits=H misses=M evictions=E bypassed=B` lines; dumps
/// without the `bypassed` field read as 0) and keyed by function name.
/// The compiler does not read it; the e2e bench derives memo.hit_ratio
/// from it.
struct MemoProfileEntry {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Calls the thunk's run-time gate sent straight to the callee.
  std::uint64_t bypassed = 0;
};
using MemoProfile = std::map<std::string, MemoProfileEntry>;

/// Extracts profile entries from stats-dump text; lines that are not
/// `purec-memo[...]` counter lines are ignored, so a whole stderr capture
/// (stats summaries, program output) can be fed back verbatim.
[[nodiscard]] MemoProfile parse_memo_profile(const std::string& text);

struct MemoFunctionInfo {
  std::string name;
  bool memoizable = false;
  /// Why the function cannot be memoized; empty when memoizable.
  std::string reason;
  SourceLocation loc;
  /// Parameter types in declaration order (arithmetic scalars).
  std::vector<TypePtr> param_types;
  TypePtr return_type;
  /// Scalar globals whose values join the key (transitive reads, sorted
  /// by name so the key layout is deterministic).
  std::vector<std::pair<std::string, TypePtr>> global_snapshot;
  /// Whole-body expression-node count: the static callee-cost proxy the
  /// cost gate reads when the body is a single `return`.
  std::size_t cost_nodes = 0;
};

struct MemoizableResult {
  /// Every pure function with a definition in the unit.
  std::map<std::string, MemoFunctionInfo> functions;
  /// Names classified memoizable, ready for the call-site rewrite.
  std::set<std::string> memoizable;

  /// One-line provenance, e.g.
  /// "memoizable: mult; rejected: dot (parameter 'a' is a pointer ...)".
  [[nodiscard]] std::string summary() const;
};

/// Upper bound on the global snapshot per function; beyond this the key
/// build would rival small callee bodies in cost.
inline constexpr std::size_t kMemoMaxGlobalSnapshot = 8;

/// Cost-gate threshold: a single-`return` body below this many
/// expression nodes is cheaper to recompute than the table trip (memoized,
/// the 3-node matmul `mult` leaf measured 0.1x), so gated classification
/// rejects it. Whatever passes is gated again at run time, per thread, by
/// the thunk's hit ratio (runtime/c/purec_memo.h).
inline constexpr std::size_t kMemoTrivialExprNodes = 8;

/// Classifies every defined function in `pure_functions`. Must run on the
/// *pre-transformation* AST (it re-derives effect summaries through
/// `symbols`, whose resolutions are keyed on the original nodes).
/// `cost_gate` enables the trivially-small-callee rejection (the chain
/// passes true unless the user asked for `--memoize=all`).
[[nodiscard]] MemoizableResult classify_memoizable(
    const TranslationUnit& tu, const SymbolTable& symbols,
    const std::set<std::string>& pure_functions,
    const PurityOptions& options = {}, bool cost_gate = false);

}  // namespace purec
