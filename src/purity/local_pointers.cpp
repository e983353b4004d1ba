#include "purity/local_pointers.h"

#include <algorithm>
#include <functional>

#include "ast/walk.h"

namespace purec {

namespace {

[[nodiscard]] Provenance join(Provenance a, Provenance b) {
  return a > b ? a : b;
}

[[nodiscard]] bool is_allocator(const std::string& callee) {
  return callee == "malloc" || callee == "calloc";
}

[[nodiscard]] const IdentExpr* ident_of(const Expr* e) {
  return expr_cast<IdentExpr>(strip_casts(e));
}

[[nodiscard]] std::optional<std::int64_t> int_constant(const Expr* e) {
  if (const auto* lit = expr_cast<IntLiteralExpr>(e)) return lit->value;
  const auto* neg = expr_cast<UnaryExpr>(e);
  if (neg != nullptr && neg->op == UnaryOp::Minus) {
    if (const auto* lit = expr_cast<IntLiteralExpr>(neg->operand.get())) {
      return -lit->value;
    }
  }
  return std::nullopt;
}

/// Matches a value `X`, `X + k`, `k + X`, `X - k` or `&X[k]`. Casts are
/// not looked through: they may change the element size `k` counts in.
[[nodiscard]] std::optional<PointerTarget> match_target(const Expr* value) {
  if (const auto* ident = expr_cast<IdentExpr>(value)) {
    return PointerTarget{ident->name, 0};
  }
  const Expr* base = nullptr;
  const Expr* k = nullptr;
  std::int64_t sign = 1;
  const auto* bin = expr_cast<BinaryExpr>(value);
  const auto* addr = expr_cast<UnaryExpr>(value);
  const auto* index = addr != nullptr && addr->op == UnaryOp::AddrOf
                          ? expr_cast<IndexExpr>(addr->operand.get())
                          : nullptr;
  if (bin != nullptr && bin->op == BinaryOp::Add &&
      expr_cast<IdentExpr>(bin->rhs.get()) != nullptr) {
    base = bin->rhs.get();
    k = bin->lhs.get();
  } else if (bin != nullptr &&
             (bin->op == BinaryOp::Add || bin->op == BinaryOp::Sub)) {
    base = bin->lhs.get();
    k = bin->rhs.get();
    if (bin->op == BinaryOp::Sub) sign = -1;
  } else if (index != nullptr) {
    base = index->base.get();
    k = index->index.get();
  }
  const auto* root = expr_cast<IdentExpr>(base);
  const std::optional<std::int64_t> offset = int_constant(k);
  if (root == nullptr || !offset) return std::nullopt;
  return PointerTarget{root->name, sign * *offset};
}

}  // namespace

LocalPointers::LocalPointers(const FunctionDecl& fn,
                             const FunctionScopeInfo& scope)
    : scope_(scope) {
  if (!fn.body) return;
  for (const ParamDecl& param : fn.params) ++declared_[param.name];
  // For returns_fresh(): every mention of a name, and the mentions that
  // hand its value to nobody (subscript base, deref, `=` target, return).
  std::map<std::string, std::size_t> uses;
  std::map<std::string, std::size_t> kept_uses;
  std::vector<const Expr*> returned;
  // Declarations first: classifying a value must see every static, also
  // one declared later in the body.
  std::vector<const VarDecl*> initialized;
  for_each_stmt(*fn.body, [&](const Stmt& s) {
    if (const auto* ret = stmt_cast<ReturnStmt>(&s)) {
      returned.push_back(strip_casts(ret->value.get()));
      if (const auto* ident = expr_cast<IdentExpr>(returned.back())) {
        ++kept_uses[ident->name];
      }
    }
    const auto* decl = stmt_cast<DeclStmt>(&s);
    if (decl == nullptr) return;
    for (const VarDecl& d : decl->decls) {
      ++declared_[d.name];
      if (d.is_static) {
        // Persistent across calls: shared state, never local storage.
        statics_.insert(d.name);
      } else if (d.type->is_array()) {
        // An array declaration defines its name as local storage.
        defs_[d.name].push_back({{Provenance::LocalStorage, {}}, {}, {}});
      } else if (d.type->is_pointer()) {
        pointers_.insert(d.name);
        if (d.init) initialized.push_back(&d);
      }
    }
  });
  for (const VarDecl* d : initialized) {
    defs_[d->name].push_back(define(d->init.get()));
  }

  const auto local_pointer = [this](const Expr* e) {
    const Symbol* sym = local(e);
    return sym != nullptr && sym->type->is_pointer() ? sym : nullptr;
  };
  // Stepping (p += k, p++) keeps p inside its object: write-safe, but an
  // interior pointer is never free()-safe again.
  const auto stepped = [](const std::string& name) {
    return Definition{{Provenance::LocalStorage, name}, {}, {}};
  };
  for_each_expr(*fn.body, [&](const Expr& e) {
    if (const auto* ident = expr_cast<IdentExpr>(&e)) {
      ++uses[ident->name];
    } else if (const auto* index = expr_cast<IndexExpr>(&e)) {
      if (const auto* base = expr_cast<IdentExpr>(index->base.get())) {
        ++kept_uses[base->name];
      }
    } else if (const auto* assign = expr_cast<AssignExpr>(&e)) {
      const bool plain = assign->op == AssignOp::Assign;
      if (const IdentExpr* target = ident_of(assign->lhs.get())) {
        (plain ? assigned_ : unstable_).insert(target->name);
        if (plain) ++kept_uses[target->name];
      }
      if (const Symbol* sym = local_pointer(assign->lhs.get())) {
        defs_[sym->name].push_back(plain ? define(assign->rhs.get())
                                         : stepped(sym->name));
      }
    } else if (const auto* unary = expr_cast<UnaryExpr>(&e)) {
      const IdentExpr* operand = ident_of(unary->operand.get());
      if (operand == nullptr) return;
      if (unary->op == UnaryOp::Deref) ++kept_uses[operand->name];
      const bool step =
          unary->op == UnaryOp::PreInc || unary->op == UnaryOp::PreDec ||
          unary->op == UnaryOp::PostInc || unary->op == UnaryOp::PostDec;
      if (!step && unary->op != UnaryOp::AddrOf) return;
      unstable_.insert(operand->name);
      if (const Symbol* sym = local_pointer(operand)) {
        // After &p, a store through the alias (`*pp = x`, the end pointer
        // strtol writes) may redefine p unseen.
        defs_[sym->name].push_back(step ? stepped(sym->name) : Definition{});
      }
    }
  });
  solve();

  returns_fresh_ =
      fn.return_type != nullptr && fn.return_type->is_pointer() &&
      !returned.empty() &&
      std::all_of(returned.begin(), returned.end(), [&](const Expr* value) {
        const auto* call = expr_cast<CallExpr>(value);
        const auto* ident = expr_cast<IdentExpr>(value);
        return (call != nullptr && is_allocator(call->callee_name())) ||
               (ident != nullptr && is_fresh(ident->name, {}) &&
                uses[ident->name] == kept_uses[ident->name]);
      });
}

Provenance LocalPointers::of(const std::string& name) const {
  if (statics_.count(name) != 0) return Provenance::Foreign;
  const auto it = provenance_.find(name);
  return it == provenance_.end() ? Provenance::Foreign : it->second;
}

const Symbol* LocalPointers::local(const Expr* e) const {
  const IdentExpr* ident = ident_of(e);
  const Symbol* sym = ident ? scope_.resolve(*ident) : nullptr;
  return sym != nullptr && sym->kind == SymbolKind::Local && sym->type &&
                 statics_.count(sym->name) == 0
             ? sym
             : nullptr;
}

bool LocalPointers::is_heap_local(const Expr* value) const {
  const Symbol* sym = local(value);
  return sym != nullptr && of(sym->name) == Provenance::Heap;
}

bool LocalPointers::may_be_foreign(const Expr* value) const {
  const Expr* core = strip_casts(value);
  if (const auto* call = expr_cast<CallExpr>(core)) {
    // Fresh heap memory is fine; any other call could return a foreign
    // pointer (we have no return types for externals).
    return !is_allocator(call->callee_name());
  }
  if (const auto* unary = expr_cast<UnaryExpr>(core)) {
    if (unary->op == UnaryOp::AddrOf) {
      // `&B[e]` is `B + e`.
      if (const auto* index = expr_cast<IndexExpr>(unary->operand.get())) {
        return may_be_foreign(index->base.get()) ||
               may_be_foreign(index->index.get());
      }
      return local(unary->operand.get()) == nullptr;
    }
    // Deref is a load: handled by the Through-shape branch below.
    // Every other unary operator yields a scalar value.
    if (unary->op != UnaryOp::Deref) return false;
  }
  if (const auto* bin = expr_cast<BinaryExpr>(core)) {
    // Pointer arithmetic carries the pointer operand's object; the
    // comma operator's value is its right side. Comparisons, logic,
    // and bit operations yield integers.
    if (bin->op == BinaryOp::Add || bin->op == BinaryOp::Sub) {
      return may_be_foreign(bin->lhs.get()) ||
             may_be_foreign(bin->rhs.get());
    }
    if (bin->op == BinaryOp::Comma) {
      return may_be_foreign(bin->rhs.get());
    }
    return false;
  }
  if (const auto* cond = expr_cast<ConditionalExpr>(core)) {
    return may_be_foreign(cond->then_expr.get()) ||
           may_be_foreign(cond->else_expr.get());
  }
  if (const auto* assign = expr_cast<AssignExpr>(core)) {
    // The value of `p = q` is q.
    return may_be_foreign(assign->rhs.get());
  }
  if (const auto* ident = expr_cast<IdentExpr>(core)) {
    const Symbol* sym = scope_.resolve(*ident);
    if (sym == nullptr) return true;
    if (sym->type == nullptr ||
        !(sym->type->is_pointer() || sym->type->is_array())) {
      return false;  // scalar value
    }
    switch (sym->kind) {
      case SymbolKind::Param:
      case SymbolKind::Global:
      case SymbolKind::Unknown:
      case SymbolKind::Function:
        return true;
      case SymbolKind::Local:
        return is_static(sym->name) ||
               (sym->type->is_pointer() &&
                of(sym->name) == Provenance::Foreign);
    }
  }
  if (lvalue_shape(*core) == LvalueShape::Through) {
    // A load out of some storage (p[i], *p, s.f): foreign if the loaded
    // slot can hold a pointer and the storage itself is not local.
    const Symbol* root = scope_.lvalue_root(*core);
    if (root == nullptr) return true;
    const TypePtr slot = scope_.slot_type(*core);
    if (slot != nullptr && !slot->is_pointer() && !slot->is_array()) {
      return false;  // scalar load
    }
    if (root->kind == SymbolKind::Local) {
      return of(root->name) == Provenance::Foreign;
    }
    return true;
  }
  return false;  // literals, arithmetic: scalar values
}

LocalPointers::Definition LocalPointers::define(const Expr* value) const {
  Definition def{classify(value), match_target(value), {}};
  if (const auto* call = expr_cast<CallExpr>(strip_casts(value))) {
    def.callee = call->callee_name();
  }
  return def;
}

LocalPointers::Source LocalPointers::classify(const Expr* value) const {
  // Pointer arithmetic stays within the base object (defined C), so
  // `buf + i` and `&buf[i]` carry the pointer operand's provenance,
  // capped at LocalStorage: an interior pointer is never free()-safe.
  const auto interior = [this](const Expr* lhs, const Expr* rhs) {
    Source side = classify(lhs);
    if (side.direct == Provenance::Foreign && side.copy_of.empty()) {
      side = classify(rhs);
    }
    side.direct = join(side.direct, Provenance::LocalStorage);
    return side;
  };
  const Expr* core = strip_casts(value);
  if (const auto* call = expr_cast<CallExpr>(core)) {
    return {is_allocator(call->callee_name()) ? Provenance::Heap
                                              : Provenance::Foreign,
            {}};
  }
  if (const auto* unary = expr_cast<UnaryExpr>(core)) {
    const auto* index = expr_cast<IndexExpr>(unary->operand.get());
    if (unary->op == UnaryOp::AddrOf && index != nullptr) {
      return interior(index->base.get(), index->index.get());
    }
    const bool local_address = unary->op == UnaryOp::AddrOf &&
                               local(unary->operand.get()) != nullptr;
    return {local_address ? Provenance::LocalStorage : Provenance::Foreign,
            {}};
  }
  if (const auto* ident = expr_cast<IdentExpr>(core)) {
    const Symbol* sym = local(ident);
    if (sym != nullptr && sym->type->is_array()) {
      return {Provenance::LocalStorage, {}};
    }
    if (sym != nullptr && sym->type->is_pointer()) {
      // A copy inherits the local's provenance: Heap stays Heap, so
      // free(alias) of a malloc'ed alias verifies.
      return {Provenance::Heap, ident->name};
    }
    return {Provenance::Foreign, {}};
  }
  const auto* bin = expr_cast<BinaryExpr>(core);
  if (bin != nullptr &&
      (bin->op == BinaryOp::Add || bin->op == BinaryOp::Sub)) {
    return interior(bin->lhs.get(), bin->rhs.get());
  }
  return {Provenance::Foreign, {}};
}

void LocalPointers::solve() {
  // Optimistic start (Heap), monotone demotion to a fixpoint so chains of
  // copies resolve.
  for (const auto& [name, defs] : defs_) provenance_[name] = Provenance::Heap;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, defs] : defs_) {
      Provenance p = Provenance::Heap;
      for (const Definition& def : defs) {
        p = join(p, def.source.direct);
        if (!def.source.copy_of.empty()) p = join(p, of(def.source.copy_of));
      }
      if (p != provenance_[name]) {
        provenance_[name] = p;
        changed = true;
      }
    }
  }
}

bool LocalPointers::is_fresh(const std::string& name,
                             const std::set<std::string>& fresh) const {
  const auto defs = defs_.find(name);
  return pointers_.count(name) != 0 && declared_.at(name) == 1 &&
         unstable_.count(name) == 0 && defs != defs_.end() &&
         std::all_of(defs->second.begin(), defs->second.end(),
                     [&](const Definition& def) {
                       return is_allocator(def.callee) ||
                              fresh.count(def.callee) != 0;
                     });
}

PointerBases LocalPointers::bases(
    const std::set<std::string>& fresh_callees) const {
  PointerBases out;
  std::function<std::optional<PointerTarget>(const std::string&, int)>
      resolve = [&](const std::string& name,
                    int depth) -> std::optional<PointerTarget> {
    // The depth bound ends definition cycles (`p = q; q = p;`).
    if (depth > 8 || declared_.at(name) != 1 || unstable_.count(name) != 0) {
      return std::nullopt;
    }
    const auto it = defs_.find(name);
    if (it == defs_.end()) return std::nullopt;
    std::optional<PointerTarget> agreed;
    for (const Definition& def : it->second) {
      std::optional<PointerTarget> target = def.target;
      if (!target || target->root == name) return std::nullopt;
      if (pointers_.count(target->root) == 0) {
        // Arrays, parameters, globals, statics: objects the model may
        // name, unless this function changes which one.
        if (unstable_.count(target->root) != 0 ||
            assigned_.count(target->root) != 0) {
          return std::nullopt;
        }
      } else if (!is_fresh(target->root, fresh_callees)) {
        const std::optional<PointerTarget> inner =
            resolve(target->root, depth + 1);
        if (!inner) return std::nullopt;
        target = PointerTarget{inner->root, inner->offset + target->offset};
      }
      if (agreed && (agreed->root != target->root ||
                     agreed->offset != target->offset)) {
        return std::nullopt;
      }
      agreed = target;
    }
    return agreed;
  };
  for (const std::string& name : pointers_) {
    if (is_fresh(name, fresh_callees)) continue;
    if (std::optional<PointerTarget> target = resolve(name, 0)) {
      out.resolved.emplace(name, std::move(*target));
    } else {
      out.unresolved.insert(name);
    }
  }
  return out;
}

}  // namespace purec
