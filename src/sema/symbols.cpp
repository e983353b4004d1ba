#include "sema/symbols.h"

#include <memory>

#include "ast/walk.h"

namespace purec {

namespace {

/// Lexical-scope walker: maintains a scope stack while visiting a function
/// body and records a resolution for every IdentExpr.
class Resolver {
 public:
  Resolver(const std::map<std::string, const FunctionDecl*>& functions,
           const std::map<std::string, const GlobalVarDecl*>& globals,
           FunctionScopeInfo& out)
      : functions_(functions), globals_(globals), out_(out) {}

  void run(const FunctionDecl& fn) {
    push_scope();
    for (const ParamDecl& p : fn.params) {
      if (p.name.empty()) continue;
      declare(Symbol{p.name, SymbolKind::Param, p.type, p.loc, nullptr});
    }
    if (fn.body) visit_stmt(*fn.body);
    pop_scope();
  }

 private:
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }

  void declare(Symbol sym) { scopes_.back()[sym.name] = std::move(sym); }

  [[nodiscard]] const Symbol* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto hit = it->find(name);
      if (hit != it->end()) return &hit->second;
    }
    return nullptr;
  }

  void resolve_ident(const IdentExpr& ident) {
    if (const Symbol* sym = lookup(ident.name)) {
      out_.resolutions_[&ident] = *sym;
      return;
    }
    if (const auto it = functions_.find(ident.name); it != functions_.end()) {
      out_.resolutions_[&ident] = Symbol{
          ident.name, SymbolKind::Function, nullptr, it->second->loc,
          it->second};
      return;
    }
    if (const auto it = globals_.find(ident.name); it != globals_.end()) {
      out_.resolutions_[&ident] =
          Symbol{ident.name, SymbolKind::Global, it->second->var.type,
                 it->second->var.loc, nullptr};
      return;
    }
    out_.resolutions_[&ident] =
        Symbol{ident.name, SymbolKind::Unknown, nullptr, ident.loc, nullptr};
  }

  void visit_expr(const Expr& e) {
    for_each_expr(e, [this](const Expr& sub) {
      if (const auto* ident = expr_cast<IdentExpr>(&sub)) {
        resolve_ident(*ident);
      }
    });
  }

  void visit_stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::Compound: {
        push_scope();
        const auto& block = static_cast<const CompoundStmt&>(s);
        for (const StmtPtr& child : block.stmts) visit_stmt(*child);
        pop_scope();
        return;
      }
      case StmtKind::Decl: {
        for (const VarDecl& d : static_cast<const DeclStmt&>(s).decls) {
          if (d.init) visit_expr(*d.init);  // init sees outer binding
          declare(Symbol{d.name, SymbolKind::Local, d.type, d.loc, nullptr});
        }
        return;
      }
      case StmtKind::Expr:
        visit_expr(*static_cast<const ExprStmt&>(s).expr);
        return;
      case StmtKind::If: {
        const auto& n = static_cast<const IfStmt&>(s);
        visit_expr(*n.cond);
        visit_stmt(*n.then_stmt);
        if (n.else_stmt) visit_stmt(*n.else_stmt);
        return;
      }
      case StmtKind::For: {
        const auto& n = static_cast<const ForStmt&>(s);
        push_scope();  // C99: for-init declarations scope over the loop
        if (n.init) visit_stmt(*n.init);
        if (n.cond) visit_expr(*n.cond);
        if (n.inc) visit_expr(*n.inc);
        if (n.body) visit_stmt(*n.body);
        pop_scope();
        return;
      }
      case StmtKind::While: {
        const auto& n = static_cast<const WhileStmt&>(s);
        visit_expr(*n.cond);
        visit_stmt(*n.body);
        return;
      }
      case StmtKind::DoWhile: {
        const auto& n = static_cast<const DoWhileStmt&>(s);
        visit_stmt(*n.body);
        visit_expr(*n.cond);
        return;
      }
      case StmtKind::Return: {
        const auto& n = static_cast<const ReturnStmt&>(s);
        if (n.value) visit_expr(*n.value);
        return;
      }
      case StmtKind::Break:
      case StmtKind::Continue:
      case StmtKind::Null:
      case StmtKind::Pragma:
        return;
    }
  }

  const std::map<std::string, const FunctionDecl*>& functions_;
  const std::map<std::string, const GlobalVarDecl*>& globals_;
  FunctionScopeInfo& out_;
  std::vector<std::map<std::string, Symbol>> scopes_;
};

}  // namespace

LvalueShape lvalue_shape(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::Ident:
      return LvalueShape::Bare;
    case ExprKind::Index:
    case ExprKind::Member:
      return LvalueShape::Through;
    case ExprKind::Unary:
      return static_cast<const UnaryExpr&>(e).op == UnaryOp::Deref
                 ? LvalueShape::Through
                 : LvalueShape::Other;
    case ExprKind::Cast:
      return lvalue_shape(*static_cast<const CastExpr&>(e).operand);
    default:
      return LvalueShape::Other;
  }
}

const Symbol* FunctionScopeInfo::lvalue_root(const Expr& e) const {
  const Expr* cursor = &e;
  for (;;) {
    switch (cursor->kind()) {
      case ExprKind::Ident:
        return resolve(static_cast<const IdentExpr&>(*cursor));
      case ExprKind::Index:
        cursor = static_cast<const IndexExpr&>(*cursor).base.get();
        continue;
      case ExprKind::Member:
        cursor = static_cast<const MemberExpr&>(*cursor).base.get();
        continue;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(*cursor);
        if (u.op == UnaryOp::Deref) {
          cursor = u.operand.get();
          continue;
        }
        return nullptr;
      }
      case ExprKind::Cast:
        cursor = static_cast<const CastExpr&>(*cursor).operand.get();
        continue;
      default:
        return nullptr;
    }
  }
}

TypePtr FunctionScopeInfo::slot_type(const Expr& lvalue) const {
  if (const auto* ident = expr_cast<IdentExpr>(&lvalue)) {
    const Symbol* sym = resolve(*ident);
    return sym != nullptr ? sym->type : nullptr;
  }
  TypePtr base;
  if (const auto* index = expr_cast<IndexExpr>(&lvalue)) {
    base = slot_type(*index->base);
  } else if (const auto* unary = expr_cast<UnaryExpr>(&lvalue)) {
    if (unary->op == UnaryOp::Deref) base = slot_type(*unary->operand);
  }
  if (base == nullptr) return nullptr;
  if (base->is_array()) return base->element;
  if (base->is_pointer()) return base->pointee;
  return nullptr;
}

SymbolTable SymbolTable::build(const TranslationUnit& tu,
                               DiagnosticEngine& diags) {
  SymbolTable table;
  for (const FunctionDecl* fn : tu.functions()) {
    const auto it = table.functions_.find(fn->name);
    if (it != table.functions_.end()) {
      const FunctionDecl* prev = it->second;
      if (prev->is_definition() && fn->is_definition()) {
        diags.error(fn->loc, "sema", "redefinition of function " + fn->name);
        continue;
      }
      if (prev->is_pure != fn->is_pure) {
        diags.error(fn->loc, "sema",
                    "conflicting purity for function " + fn->name +
                        " (declaration and definition must both be pure)");
      }
      if (!prev->is_definition() && fn->is_definition()) {
        it->second = fn;  // prefer the definition
      }
      continue;
    }
    table.functions_[fn->name] = fn;
  }
  for (const GlobalVarDecl* g : tu.globals()) {
    table.globals_[g->var.name] = g;
  }
  for (const FunctionDecl* fn : tu.functions()) {
    if (!fn->is_definition()) continue;
    FunctionScopeInfo info;
    Resolver resolver(table.functions_, table.globals_, info);
    resolver.run(*fn);
    table.function_scopes_[fn] = std::move(info);
  }
  return table;
}

}  // namespace purec
