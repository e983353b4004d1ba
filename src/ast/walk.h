// Generic pre-order traversal helpers used by every analysis pass. The
// mutating "slot" variants hand out the owning ExprPtr so a pass can replace
// a subtree in place (the chain's pure-call substitution needs exactly that).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ast/decl.h"
#include "ast/expr.h"
#include "ast/stmt.h"

namespace purec {

/// A recognized affine induction step: `i++`, `++i`, `i += K`, or
/// `i = i + K` with K a positive integer constant. Shared by the while
/// canonicalizer and the polyhedral loop matcher so the accepted step
/// grammar cannot drift between them.
struct InductionStep {
  std::string iterator;
  std::int64_t stride = 1;
};

[[nodiscard]] std::optional<InductionStep> match_induction_step(
    const Expr& inc);

/// True when any expression reachable from the subtree mentions the
/// identifier `name` (shared by the canonicalizer's and the chain's
/// liveness scans so their notion of "references" cannot drift).
[[nodiscard]] bool references_identifier(const Stmt& s,
                                         const std::string& name);
[[nodiscard]] bool references_identifier(const Expr& e,
                                         const std::string& name);

/// Visits `e` and all sub-expressions, pre-order.
void for_each_expr(const Expr& e, const std::function<void(const Expr&)>& fn);
void for_each_expr(Expr& e, const std::function<void(Expr&)>& fn);

/// Visits all expressions reachable from `s` (conditions, initializers,
/// increments, ...), pre-order within each expression tree.
void for_each_expr(const Stmt& s, const std::function<void(const Expr&)>& fn);
void for_each_expr(Stmt& s, const std::function<void(Expr&)>& fn);

/// Visits `s` and all sub-statements, pre-order.
void for_each_stmt(const Stmt& s, const std::function<void(const Stmt&)>& fn);
void for_each_stmt(Stmt& s, const std::function<void(Stmt&)>& fn);

/// Visits every call expression reachable from `s`, pre-order. Convenience
/// over for_each_expr for the call-graph/effect passes.
void for_each_call(const Stmt& s,
                   const std::function<void(const CallExpr&)>& fn);

/// Strips casts off an expression (parens are not materialized by the AST).
[[nodiscard]] const Expr* strip_casts(const Expr* e);

/// Mutating traversal over every owning expression slot under `s`.
/// The callback may replace the pointed-to expression; returning `true`
/// means "do not descend into this slot's (possibly new) children".
using ExprSlotFn = std::function<bool(ExprPtr&)>;
void for_each_expr_slot(Stmt& s, const ExprSlotFn& fn);
void for_each_expr_slot(ExprPtr& e, const ExprSlotFn& fn);

}  // namespace purec
