#include "purity/effects.h"

#include <map>

#include "ast/walk.h"

namespace purec {

namespace {

/// The verdict on a writing extern call, shared by the scanner and the
/// declared-pure verifier: empty reason when its destination provably
/// targets function-local storage.
struct ExternWriteVerdict {
  std::string reason;
  /// The rejection involves an untrackable pointer write (classification
  /// bit for EffectSummary, unused by the verifier).
  bool unknown_pointer = false;
};

[[nodiscard]] ExternWriteVerdict check_extern_write(
    const LocalPointers& pointers, const CallExpr& call,
    const std::string& name, ExternEffectKind kind) {
  if (kind == ExternEffectKind::WritesArg1) {
    // The strtol/strtod family's only store is *endptr. A null constant
    // endptr performs no write at all and an `&local` endptr lands in
    // function-local storage — both fall out of the same foreign-pointer
    // query (literals are scalar values, AddrOf of a non-static local is
    // local provenance). errno on range errors is outside the modeled
    // dialect; a body that read errno would already be rejected as an
    // unknown-global read.
    if (call.args.size() < 2) {
      return {"calls '" + name + "' without an end-pointer argument", false};
    }
    if (pointers.may_be_foreign(call.args[1].get())) {
      return {"calls '" + name +
                  "' storing its end pointer where the caller or another "
                  "thread may observe it",
              true};
    }
    return {};
  }
  if (call.args.empty()) {
    return {"calls '" + name + "' without a destination", false};
  }
  if (name == "snprintf") {
    // The arg0 write is bounded by arg1, but %n writes through a
    // *later* pointer argument; the WritesArg0 model only holds for a
    // literal format provably free of %n.
    const auto* format =
        call.args.size() >= 3
            ? expr_cast<StringLiteralExpr>(strip_casts(call.args[2].get()))
            : nullptr;
    if (format == nullptr) {
      return {"calls 'snprintf' with a non-literal format string "
              "(effects unknown)",
              false};
    }
    if (format->spelling.find("%n") != std::string::npos) {
      return {"calls 'snprintf' with %n (writes through a format argument)",
              true};
    }
  }
  if (pointers.may_be_foreign(call.args[0].get())) {
    return {"calls '" + name +
                "' writing through a pointer that may reference caller or "
                "global memory",
            true};
  }
  return {};
}

class EffectScanner {
 public:
  EffectScanner(const FunctionDecl& fn, const FunctionScopeInfo& scope,
                bool allow_malloc_free)
      : fn_(fn),
        scope_(scope),
        allow_malloc_free_(allow_malloc_free),
        pointers_(fn, scope) {}

  [[nodiscard]] EffectSummary run() {
    summary_.function = fn_.name;
    if (fn_.is_variadic) {
      impure(fn_.loc, "is variadic (effects of va_arg uses are opaque)");
    }
    collect_callee_idents();
    for_each_expr(static_cast<const Stmt&>(*fn_.body),
                  [this](const Expr& e) { scan_expr(e); });
    return std::move(summary_);
  }

 private:
  void impure(SourceLocation loc, std::string reason) {
    if (!summary_.pure_locally) return;  // keep the first reason
    summary_.pure_locally = false;
    summary_.impurity_reason = std::move(reason);
    summary_.impurity_loc = loc;
  }

  /// Callee identifiers must not be mistaken for global variable reads.
  void collect_callee_idents() {
    for_each_call(*fn_.body, [this](const CallExpr& call) {
      if (const auto* ident = expr_cast<IdentExpr>(call.callee.get())) {
        callee_idents_.insert(ident);
      }
    });
  }

  void scan_expr(const Expr& e) {
    if (const auto* call = expr_cast<CallExpr>(&e)) {
      scan_call(*call);
      return;
    }
    if (const auto* assign = expr_cast<AssignExpr>(&e)) {
      scan_write(*assign->lhs, assign->loc);
      if (assign->op == AssignOp::Assign) scan_pointer_store(*assign);
      return;
    }
    if (const auto* unary = expr_cast<UnaryExpr>(&e)) {
      if (unary->op == UnaryOp::PreInc || unary->op == UnaryOp::PreDec ||
          unary->op == UnaryOp::PostInc || unary->op == UnaryOp::PostDec) {
        scan_write(*unary->operand, unary->loc);
      }
      return;
    }
    if (const auto* ident = expr_cast<IdentExpr>(&e)) {
      if (callee_idents_.count(ident) != 0) return;
      const Symbol* sym = scope_.resolve(*ident);
      if (sym != nullptr && sym->type != nullptr &&
          sym->type->any_level_volatile()) {
        // Each access is an event of its own: two calls with the same
        // arguments may read different values.
        impure(ident->loc, "accesses volatile '" + ident->name + "'");
      }
      if (sym != nullptr && (sym->kind == SymbolKind::Global ||
                             sym->kind == SymbolKind::Unknown)) {
        summary_.global_reads.insert(ident->name);
      }
      return;
    }
  }

  void scan_call(const CallExpr& call) {
    const std::string name = call.callee_name();
    if (name.empty()) {
      summary_.has_indirect_call = true;
      impure(call.loc, "calls through a function pointer");
      return;
    }
    if (const ExternEffect* known = extern_effect(name)) {
      scan_known_extern(call, name, *known);
      return;
    }
    if (name == "malloc" || name == "calloc") {
      summary_.allocates = true;
      if (!allow_malloc_free_) summary_.callees.insert(name);
      return;
    }
    if (name == "free") {
      summary_.frees = true;
      if (!allow_malloc_free_) summary_.callees.insert(name);
      scan_free(call);
      return;
    }
    summary_.callees.insert(name);
  }

  /// A call modeled by the extern effect database is resolved here and
  /// never becomes a pessimized callee edge. ReadOnly externs are free;
  /// writing externs (WritesArg0/WritesArg1) are harmless exactly when
  /// their destination provably targets function-local storage (same
  /// provenance reasoning as direct stores).
  void scan_known_extern(const CallExpr& call, const std::string& name,
                         const ExternEffect& effect) {
    summary_.extern_calls.insert(name);
    if (effect.kind == ExternEffectKind::ReadOnly) return;
    const ExternWriteVerdict verdict =
        check_extern_write(pointers_, call, name, effect.kind);
    if (verdict.reason.empty()) return;
    if (verdict.unknown_pointer) summary_.writes_unknown_pointer = true;
    impure(call.loc, verdict.reason);
  }

  void scan_free(const CallExpr& call) {
    if (call.args.size() != 1) {
      impure(call.loc, "calls free() with the wrong arity");
      return;
    }
    if (!pointers_.is_heap_local(call.args[0].get())) {
      impure(call.loc, "frees memory it did not allocate");
    }
  }

  /// The deep-write hole: local storage is writable, but once a *foreign
  /// pointer* is stored into a pointer-typed slot of it, later writes
  /// through that slot would reach caller/global memory while still
  /// rooting at the local. Conservatively reject the store itself.
  void scan_pointer_store(const AssignExpr& assign) {
    const Symbol* root = scope_.lvalue_root(*assign.lhs);
    if (root == nullptr || root->kind != SymbolKind::Local) return;
    if (lvalue_shape(*assign.lhs) != LvalueShape::Through) return;
    if (pointers_.of(root->name) == Provenance::Foreign) return;  // flagged
    const TypePtr slot = scope_.slot_type(*assign.lhs);
    const bool slot_holds_pointer =
        slot == nullptr || slot->is_pointer() || slot->is_array();
    if (slot_holds_pointer &&
        pointers_.may_be_foreign(assign.rhs.get())) {
      impure(assign.loc, "stores a caller/global pointer into local "
                         "storage (writes through it would be untrackable)");
    }
  }

  void scan_write(const Expr& lhs, SourceLocation loc) {
    const Symbol* root = scope_.lvalue_root(lhs);
    if (root == nullptr) {
      impure(loc, "has an assignment target the analysis cannot resolve");
      return;
    }
    const LvalueShape shape = lvalue_shape(lhs);
    switch (root->kind) {
      case SymbolKind::Global:
        summary_.writes_global = true;
        impure(loc, "writes to global '" + root->name + "'");
        return;
      case SymbolKind::Unknown:
        summary_.writes_global = true;
        impure(loc, "writes to undeclared/external '" + root->name + "'");
        return;
      case SymbolKind::Function:
        impure(loc, "assigns to function '" + root->name + "'");
        return;
      case SymbolKind::Param:
        if (shape == LvalueShape::Through) {
          summary_.writes_through_param = true;
          impure(loc, "writes through parameter '" + root->name + "'");
        }
        // Bare: reassigning the by-value copy is invisible to the caller.
        return;
      case SymbolKind::Local:
        if (pointers_.is_static(root->name)) {
          impure(loc, "writes to static local '" + root->name +
                          "' (state persists across calls)");
          return;
        }
        if (shape == LvalueShape::Through &&
            pointers_.of(root->name) == Provenance::Foreign) {
          summary_.writes_unknown_pointer = true;
          impure(loc, "writes through pointer '" + root->name +
                          "' that may reference caller or global memory");
        }
        return;
    }
  }

  const FunctionDecl& fn_;
  const FunctionScopeInfo& scope_;
  const bool allow_malloc_free_;
  const LocalPointers pointers_;
  EffectSummary summary_;
  std::set<const IdentExpr*> callee_idents_;
};

}  // namespace

const ExternEffect* extern_effect(const std::string& name) {
  static const std::map<std::string, ExternEffect> kDatabase = {
      {"memcpy", {ExternEffectKind::WritesArg0}},
      {"memmove", {ExternEffectKind::WritesArg0}},
      {"memset", {ExternEffectKind::WritesArg0}},
      {"snprintf", {ExternEffectKind::WritesArg0}},
      {"strcpy", {ExternEffectKind::WritesArg0}},
      {"strncpy", {ExternEffectKind::WritesArg0}},
      {"strcat", {ExternEffectKind::WritesArg0}},
      {"strncat", {ExternEffectKind::WritesArg0}},
      {"strlen", {ExternEffectKind::ReadOnly}},
      {"memcmp", {ExternEffectKind::ReadOnly}},
      {"memchr", {ExternEffectKind::ReadOnly}},
      {"strchr", {ExternEffectKind::ReadOnly}},
      {"strrchr", {ExternEffectKind::ReadOnly}},
      {"strncmp", {ExternEffectKind::ReadOnly}},
      {"strcspn", {ExternEffectKind::ReadOnly}},
      {"strspn", {ExternEffectKind::ReadOnly}},
      {"strstr", {ExternEffectKind::ReadOnly}},
      {"abs", {ExternEffectKind::ReadOnly}},
      {"labs", {ExternEffectKind::ReadOnly}},
      // math.h value functions: no pointer arguments at all, so modeling
      // them ReadOnly is trivially sound. They were already in the pure
      // seed hashset; listing them here makes the effect model explicit
      // and records them in EffectSummary::extern_calls for downstream
      // analyses (memoization, reporting).
      {"fmin", {ExternEffectKind::ReadOnly}},
      {"fmax", {ExternEffectKind::ReadOnly}},
      {"fabs", {ExternEffectKind::ReadOnly}},
      {"sqrt", {ExternEffectKind::ReadOnly}},
      {"fminf", {ExternEffectKind::ReadOnly}},
      {"fmaxf", {ExternEffectKind::ReadOnly}},
      {"fabsf", {ExternEffectKind::ReadOnly}},
      {"sqrtf", {ExternEffectKind::ReadOnly}},
      // ctype.h classifiers/converters: value in, value out. Sound under
      // the "C" locale assumption the chain already makes everywhere
      // (glibc implements them as table lookups; the chain never calls
      // setlocale, and emitted programs do not either).
      {"isalpha", {ExternEffectKind::ReadOnly}},
      {"isdigit", {ExternEffectKind::ReadOnly}},
      {"isspace", {ExternEffectKind::ReadOnly}},
      {"tolower", {ExternEffectKind::ReadOnly}},
      {"toupper", {ExternEffectKind::ReadOnly}},
      // Numeric parsers that only *read* their argument string. atoi/atol
      // on invalid input are UB per the standard, so errno is not a
      // concern.
      {"atoi", {ExternEffectKind::ReadOnly}},
      {"atol", {ExternEffectKind::ReadOnly}},
      // The strtol family writes through its endptr out-parameter and
      // nothing else, so it gets the WritesArg1 model: fine with a null
      // endptr or an &local, rejected when the end pointer could land in
      // caller or global memory. (Purity tolerates these; memoization
      // still rejects them as locale-sensitive — see memoizable.cpp.)
      {"strtol", {ExternEffectKind::WritesArg1}},
      {"strtoul", {ExternEffectKind::WritesArg1}},
      {"strtod", {ExternEffectKind::WritesArg1}},
      {"strtof", {ExternEffectKind::WritesArg1}},
  };
  const auto it = kDatabase.find(name);
  return it == kDatabase.end() ? nullptr : &it->second;
}

std::string extern_write_violation(const CallExpr& call,
                                   const std::string& name,
                                   ExternEffectKind kind,
                                   const LocalPointers& pointers) {
  return check_extern_write(pointers, call, name, kind).reason;
}

EffectSummary compute_effects(const FunctionDecl& fn,
                              const FunctionScopeInfo& scope,
                              bool allow_malloc_free) {
  EffectSummary summary;
  summary.function = fn.name;
  if (!fn.is_definition()) {
    summary.pure_locally = false;
    summary.impurity_reason = "has no definition in this translation unit";
    summary.impurity_loc = fn.loc;
    return summary;
  }
  return EffectScanner(fn, scope, allow_malloc_free).run();
}

}  // namespace purec
