#include "transform/pure_inliner.h"

#include <map>

#include "ast/walk.h"
#include "sema/symbols.h"

namespace purec {

namespace {

constexpr int kMaxInlineRounds = 8;

/// The inlinable shape: a definition whose body is exactly
/// `{ return <expr>; }` and whose parameters are all named.
[[nodiscard]] const Expr* expression_body(const FunctionDecl& fn) {
  if (!fn.body || fn.body->stmts.size() != 1) return nullptr;
  const auto* ret = stmt_cast<ReturnStmt>(fn.body->stmts[0].get());
  if (ret == nullptr || !ret->value) return nullptr;
  for (const ParamDecl& p : fn.params) {
    if (p.name.empty()) return nullptr;
  }
  return ret->value.get();
}

/// Structural type equality that ignores `const` and `pure` at every
/// level.
[[nodiscard]] bool same_unqualified(const Type& a, const Type& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case TypeKind::Builtin:
      return a.builtin == b.builtin;
    case TypeKind::Pointer:
      return same_unqualified(*a.pointee, *b.pointee);
    case TypeKind::Array:
      return a.array_size == b.array_size &&
             same_unqualified(*a.element, *b.element);
    case TypeKind::Struct:
    case TypeKind::Named:
      return a.name == b.name;
  }
  return false;
}

/// The argument to substitute for a parameter: `x` itself when the
/// argument is `(T)x` and the cast changes only qualifiers of x's declared
/// type, e.g. `(pure float**)cur` for `float** cur`. Such a cast changes no
/// value or layout, while SCoP extraction takes an access rooted in a cast
/// for an unsupported (non `ident[...]`) shape.
[[nodiscard]] const Expr& bare_argument(const Expr& arg,
                                        const FunctionScopeInfo* scope) {
  const auto* cast = expr_cast<CastExpr>(&arg);
  if (cast == nullptr || scope == nullptr) return arg;
  const auto* ident = expr_cast<IdentExpr>(cast->operand.get());
  if (ident == nullptr) return arg;
  const Symbol* symbol = scope->resolve(*ident);
  if (symbol == nullptr || symbol->type == nullptr ||
      !same_unqualified(*symbol->type, *cast->target_type)) {
    return arg;
  }
  return *ident;
}

/// Builds the inlined expression: clone of `body` with each parameter
/// identifier replaced by (a clone of) the matching argument.
[[nodiscard]] ExprPtr instantiate(const Expr& body,
                                  const FunctionDecl& fn,
                                  const std::vector<ExprPtr>& args,
                                  const FunctionScopeInfo* scope) {
  ExprPtr cloned = body.clone();
  for_each_expr_slot(cloned, [&](ExprPtr& slot) -> bool {
    const auto* ident = expr_cast<IdentExpr>(slot.get());
    if (ident == nullptr) return false;
    for (std::size_t i = 0; i < fn.params.size() && i < args.size(); ++i) {
      if (fn.params[i].name == ident->name) {
        slot = bare_argument(*args[i], scope).clone();
        return true;  // arguments are caller expressions: do not rescan
      }
    }
    return false;
  });
  return cloned;
}

}  // namespace

std::size_t inline_pure_expression_functions(
    TranslationUnit& tu, const std::set<std::string>& pure_functions,
    const SymbolTable& symbols) {
  // Collect inlinable definitions.
  std::map<std::string, const FunctionDecl*> inlinable;
  for (const FunctionDecl* fn : tu.functions()) {
    // Membership in the hashset is the authority, so inferred-pure
    // functions (--infer-pure) inline exactly like annotated ones.
    if (!fn->is_definition()) continue;
    if (pure_functions.count(fn->name) == 0) continue;
    if (expression_body(*fn) != nullptr) inlinable[fn->name] = fn;
  }
  if (inlinable.empty()) return 0;

  std::size_t total = 0;
  for (FunctionDecl* fn : tu.functions()) {
    if (!fn->body) continue;
    const FunctionScopeInfo* scope = symbols.scope_for(*fn);
    // Fixpoint: inlined bodies may contain further inlinable calls
    // (e.g. a pure helper calling another pure helper).
    for (int round = 0; round < kMaxInlineRounds; ++round) {
      std::size_t inlined_this_round = 0;
      for_each_expr_slot(*fn->body, [&](ExprPtr& slot) -> bool {
        auto* call = expr_cast<CallExpr>(slot.get());
        if (call == nullptr) return false;
        const auto it = inlinable.find(call->callee_name());
        if (it == inlinable.end()) return false;
        const FunctionDecl& target = *it->second;
        // Self-recursive expression functions cannot be inlined away.
        if (&target == fn) return false;
        if (call->args.size() != target.params.size()) return false;
        const Expr* body = expression_body(target);
        slot = instantiate(*body, target, call->args, scope);
        ++inlined_this_round;
        return true;
      });
      total += inlined_this_round;
      if (inlined_this_round == 0) break;
    }
  }
  return total;
}

}  // namespace purec
