#include "ast/walk.h"

namespace purec {

namespace {

template <typename ExprT, typename Fn>
void walk_expr(ExprT& e, const Fn& fn) {
  fn(e);
  switch (e.kind()) {
    case ExprKind::IntLiteral:
    case ExprKind::FloatLiteral:
    case ExprKind::CharLiteral:
    case ExprKind::StringLiteral:
    case ExprKind::Ident:
      return;
    case ExprKind::Unary: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const UnaryExpr,
                             UnaryExpr>&>(e);
      walk_expr(*n.operand, fn);
      return;
    }
    case ExprKind::Binary: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const BinaryExpr,
                             BinaryExpr>&>(e);
      walk_expr(*n.lhs, fn);
      walk_expr(*n.rhs, fn);
      return;
    }
    case ExprKind::Assign: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const AssignExpr,
                             AssignExpr>&>(e);
      walk_expr(*n.lhs, fn);
      walk_expr(*n.rhs, fn);
      return;
    }
    case ExprKind::Conditional: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const ConditionalExpr,
                             ConditionalExpr>&>(e);
      walk_expr(*n.cond, fn);
      walk_expr(*n.then_expr, fn);
      walk_expr(*n.else_expr, fn);
      return;
    }
    case ExprKind::Call: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const CallExpr,
                             CallExpr>&>(e);
      walk_expr(*n.callee, fn);
      for (auto& a : n.args) walk_expr(*a, fn);
      return;
    }
    case ExprKind::Index: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const IndexExpr,
                             IndexExpr>&>(e);
      walk_expr(*n.base, fn);
      walk_expr(*n.index, fn);
      return;
    }
    case ExprKind::Member: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const MemberExpr,
                             MemberExpr>&>(e);
      walk_expr(*n.base, fn);
      return;
    }
    case ExprKind::Cast: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const CastExpr,
                             CastExpr>&>(e);
      walk_expr(*n.operand, fn);
      return;
    }
    case ExprKind::Sizeof: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<ExprT>, const SizeofExpr,
                             SizeofExpr>&>(e);
      if (n.operand) walk_expr(*n.operand, fn);
      return;
    }
  }
}

template <typename StmtT, typename ExprT, typename Fn>
void walk_stmt_exprs(StmtT& s, const Fn& fn) {
  switch (s.kind()) {
    case StmtKind::Compound: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const CompoundStmt,
                             CompoundStmt>&>(s);
      for (auto& child : n.stmts) walk_stmt_exprs<StmtT, ExprT>(*child, fn);
      return;
    }
    case StmtKind::Decl: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const DeclStmt,
                             DeclStmt>&>(s);
      for (auto& d : n.decls) {
        if (d.init) walk_expr<ExprT>(*d.init, fn);
      }
      return;
    }
    case StmtKind::Expr: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const ExprStmt,
                             ExprStmt>&>(s);
      walk_expr<ExprT>(*n.expr, fn);
      return;
    }
    case StmtKind::If: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const IfStmt, IfStmt>&>(
          s);
      walk_expr<ExprT>(*n.cond, fn);
      walk_stmt_exprs<StmtT, ExprT>(*n.then_stmt, fn);
      if (n.else_stmt) walk_stmt_exprs<StmtT, ExprT>(*n.else_stmt, fn);
      return;
    }
    case StmtKind::For: {
      auto& n = static_cast<std::conditional_t<std::is_const_v<StmtT>,
                                               const ForStmt, ForStmt>&>(s);
      if (n.init) walk_stmt_exprs<StmtT, ExprT>(*n.init, fn);
      if (n.cond) walk_expr<ExprT>(*n.cond, fn);
      if (n.inc) walk_expr<ExprT>(*n.inc, fn);
      if (n.body) walk_stmt_exprs<StmtT, ExprT>(*n.body, fn);
      return;
    }
    case StmtKind::While: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const WhileStmt,
                             WhileStmt>&>(s);
      walk_expr<ExprT>(*n.cond, fn);
      walk_stmt_exprs<StmtT, ExprT>(*n.body, fn);
      return;
    }
    case StmtKind::DoWhile: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const DoWhileStmt,
                             DoWhileStmt>&>(s);
      walk_stmt_exprs<StmtT, ExprT>(*n.body, fn);
      walk_expr<ExprT>(*n.cond, fn);
      return;
    }
    case StmtKind::Return: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const ReturnStmt,
                             ReturnStmt>&>(s);
      if (n.value) walk_expr<ExprT>(*n.value, fn);
      return;
    }
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Null:
    case StmtKind::Pragma:
      return;
  }
}

template <typename StmtT, typename Fn>
void walk_stmts(StmtT& s, const Fn& fn) {
  fn(s);
  switch (s.kind()) {
    case StmtKind::Compound: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const CompoundStmt,
                             CompoundStmt>&>(s);
      for (auto& child : n.stmts) walk_stmts(*child, fn);
      return;
    }
    case StmtKind::If: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const IfStmt, IfStmt>&>(
          s);
      walk_stmts(*n.then_stmt, fn);
      if (n.else_stmt) walk_stmts(*n.else_stmt, fn);
      return;
    }
    case StmtKind::For: {
      auto& n = static_cast<std::conditional_t<std::is_const_v<StmtT>,
                                               const ForStmt, ForStmt>&>(s);
      if (n.init) walk_stmts(*n.init, fn);
      if (n.body) walk_stmts(*n.body, fn);
      return;
    }
    case StmtKind::While: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const WhileStmt,
                             WhileStmt>&>(s);
      walk_stmts(*n.body, fn);
      return;
    }
    case StmtKind::DoWhile: {
      auto& n = static_cast<
          std::conditional_t<std::is_const_v<StmtT>, const DoWhileStmt,
                             DoWhileStmt>&>(s);
      walk_stmts(*n.body, fn);
      return;
    }
    default:
      return;
  }
}

void walk_expr_slot(ExprPtr& slot, const ExprSlotFn& fn) {
  if (!slot) return;
  if (fn(slot)) return;  // callback handled/replaced; do not descend
  Expr& e = *slot;
  switch (e.kind()) {
    case ExprKind::IntLiteral:
    case ExprKind::FloatLiteral:
    case ExprKind::CharLiteral:
    case ExprKind::StringLiteral:
    case ExprKind::Ident:
      return;
    case ExprKind::Unary:
      walk_expr_slot(static_cast<UnaryExpr&>(e).operand, fn);
      return;
    case ExprKind::Binary: {
      auto& n = static_cast<BinaryExpr&>(e);
      walk_expr_slot(n.lhs, fn);
      walk_expr_slot(n.rhs, fn);
      return;
    }
    case ExprKind::Assign: {
      auto& n = static_cast<AssignExpr&>(e);
      walk_expr_slot(n.lhs, fn);
      walk_expr_slot(n.rhs, fn);
      return;
    }
    case ExprKind::Conditional: {
      auto& n = static_cast<ConditionalExpr&>(e);
      walk_expr_slot(n.cond, fn);
      walk_expr_slot(n.then_expr, fn);
      walk_expr_slot(n.else_expr, fn);
      return;
    }
    case ExprKind::Call: {
      auto& n = static_cast<CallExpr&>(e);
      walk_expr_slot(n.callee, fn);
      for (auto& a : n.args) walk_expr_slot(a, fn);
      return;
    }
    case ExprKind::Index: {
      auto& n = static_cast<IndexExpr&>(e);
      walk_expr_slot(n.base, fn);
      walk_expr_slot(n.index, fn);
      return;
    }
    case ExprKind::Member:
      walk_expr_slot(static_cast<MemberExpr&>(e).base, fn);
      return;
    case ExprKind::Cast:
      walk_expr_slot(static_cast<CastExpr&>(e).operand, fn);
      return;
    case ExprKind::Sizeof:
      walk_expr_slot(static_cast<SizeofExpr&>(e).operand, fn);
      return;
  }
}

void walk_stmt_expr_slots(Stmt& s, const ExprSlotFn& fn) {
  switch (s.kind()) {
    case StmtKind::Compound:
      for (auto& child : static_cast<CompoundStmt&>(s).stmts) {
        walk_stmt_expr_slots(*child, fn);
      }
      return;
    case StmtKind::Decl:
      for (auto& d : static_cast<DeclStmt&>(s).decls) {
        walk_expr_slot(d.init, fn);
      }
      return;
    case StmtKind::Expr:
      walk_expr_slot(static_cast<ExprStmt&>(s).expr, fn);
      return;
    case StmtKind::If: {
      auto& n = static_cast<IfStmt&>(s);
      walk_expr_slot(n.cond, fn);
      walk_stmt_expr_slots(*n.then_stmt, fn);
      if (n.else_stmt) walk_stmt_expr_slots(*n.else_stmt, fn);
      return;
    }
    case StmtKind::For: {
      auto& n = static_cast<ForStmt&>(s);
      if (n.init) walk_stmt_expr_slots(*n.init, fn);
      walk_expr_slot(n.cond, fn);
      walk_expr_slot(n.inc, fn);
      if (n.body) walk_stmt_expr_slots(*n.body, fn);
      return;
    }
    case StmtKind::While: {
      auto& n = static_cast<WhileStmt&>(s);
      walk_expr_slot(n.cond, fn);
      walk_stmt_expr_slots(*n.body, fn);
      return;
    }
    case StmtKind::DoWhile: {
      auto& n = static_cast<DoWhileStmt&>(s);
      walk_stmt_expr_slots(*n.body, fn);
      walk_expr_slot(n.cond, fn);
      return;
    }
    case StmtKind::Return:
      walk_expr_slot(static_cast<ReturnStmt&>(s).value, fn);
      return;
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Null:
    case StmtKind::Pragma:
      return;
  }
}

}  // namespace

void for_each_expr(const Expr& e,
                   const std::function<void(const Expr&)>& fn) {
  walk_expr<const Expr>(e, fn);
}
void for_each_expr(Expr& e, const std::function<void(Expr&)>& fn) {
  walk_expr<Expr>(e, fn);
}
void for_each_expr(const Stmt& s,
                   const std::function<void(const Expr&)>& fn) {
  walk_stmt_exprs<const Stmt, const Expr>(s, fn);
}
void for_each_expr(Stmt& s, const std::function<void(Expr&)>& fn) {
  walk_stmt_exprs<Stmt, Expr>(s, fn);
}
void for_each_stmt(const Stmt& s,
                   const std::function<void(const Stmt&)>& fn) {
  walk_stmts<const Stmt>(s, fn);
}
void for_each_stmt(Stmt& s, const std::function<void(Stmt&)>& fn) {
  walk_stmts<Stmt>(s, fn);
}
void for_each_expr_slot(Stmt& s, const ExprSlotFn& fn) {
  walk_stmt_expr_slots(s, fn);
}
void for_each_expr_slot(ExprPtr& e, const ExprSlotFn& fn) {
  walk_expr_slot(e, fn);
}

void for_each_call(const Stmt& s,
                   const std::function<void(const CallExpr&)>& fn) {
  for_each_expr(s, [&fn](const Expr& e) {
    if (const auto* call = expr_cast<CallExpr>(&e)) fn(*call);
  });
}

const Expr* strip_casts(const Expr* e) {
  while (const auto* cast = expr_cast<CastExpr>(e)) {
    e = cast->operand.get();
  }
  return e;
}

bool references_identifier(const Stmt& s, const std::string& name) {
  bool found = false;
  for_each_expr(s, [&](const Expr& e) {
    const auto* ident = expr_cast<IdentExpr>(&e);
    if (ident != nullptr && ident->name == name) found = true;
  });
  return found;
}

bool references_identifier(const Expr& e, const std::string& name) {
  bool found = false;
  for_each_expr(e, [&](const Expr& sub) {
    const auto* ident = expr_cast<IdentExpr>(&sub);
    if (ident != nullptr && ident->name == name) found = true;
  });
  return found;
}

std::optional<InductionStep> match_induction_step(const Expr& inc) {
  if (const auto* u = expr_cast<UnaryExpr>(&inc)) {
    if (u->op == UnaryOp::PostInc || u->op == UnaryOp::PreInc) {
      if (const auto* ident = expr_cast<IdentExpr>(u->operand.get())) {
        return InductionStep{ident->name, 1};
      }
    }
    return std::nullopt;
  }
  const auto* a = expr_cast<AssignExpr>(&inc);
  if (a == nullptr) return std::nullopt;
  const auto* ident = expr_cast<IdentExpr>(a->lhs.get());
  if (ident == nullptr) return std::nullopt;
  if (a->op == AssignOp::AddAssign) {
    const auto* step = expr_cast<IntLiteralExpr>(a->rhs.get());
    if (step != nullptr && step->value >= 1) {
      return InductionStep{ident->name, step->value};
    }
    return std::nullopt;
  }
  if (a->op == AssignOp::Assign) {
    const auto* add = expr_cast<BinaryExpr>(a->rhs.get());
    if (add != nullptr && add->op == BinaryOp::Add) {
      const auto* base = expr_cast<IdentExpr>(add->lhs.get());
      const auto* step = expr_cast<IntLiteralExpr>(add->rhs.get());
      if (base != nullptr && base->name == ident->name && step != nullptr &&
          step->value >= 1) {
        return InductionStep{ident->name, step->value};
      }
    }
  }
  return std::nullopt;
}

}  // namespace purec
