#include "emit/c_printer.h"

#include <sstream>

#include "ast/expr.h"
#include "ast/stmt.h"

namespace purec {

namespace {

/// Expression precedence for parenthesization, mirroring the parser.
/// Larger binds tighter.
int precedence(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::IntLiteral:
    case ExprKind::FloatLiteral:
    case ExprKind::CharLiteral:
    case ExprKind::StringLiteral:
    case ExprKind::Ident:
      return 100;
    case ExprKind::Call:
    case ExprKind::Index:
    case ExprKind::Member:
      return 90;
    case ExprKind::Unary:
    case ExprKind::Cast:
    case ExprKind::Sizeof:
      return 80;
    case ExprKind::Binary: {
      switch (static_cast<const BinaryExpr&>(e).op) {
        case BinaryOp::Mul:
        case BinaryOp::Div:
        case BinaryOp::Rem:
          return 70;
        case BinaryOp::Add:
        case BinaryOp::Sub:
          return 65;
        case BinaryOp::Shl:
        case BinaryOp::Shr:
          return 60;
        case BinaryOp::Less:
        case BinaryOp::Greater:
        case BinaryOp::LessEqual:
        case BinaryOp::GreaterEqual:
          return 55;
        case BinaryOp::Equal:
        case BinaryOp::NotEqual:
          return 50;
        case BinaryOp::BitAnd:
          return 45;
        case BinaryOp::BitXor:
          return 40;
        case BinaryOp::BitOr:
          return 35;
        case BinaryOp::LogicalAnd:
          return 30;
        case BinaryOp::LogicalOr:
          return 25;
        case BinaryOp::Comma:
          return 5;
      }
      return 25;
    }
    case ExprKind::Conditional:
      return 20;
    case ExprKind::Assign:
      return 10;
  }
  return 0;
}

class Printer {
 public:
  explicit Printer(const PrintOptions& options) : options_(options) {}

  [[nodiscard]] std::string take() { return std::move(out_).str(); }

  // -- types ----------------------------------------------------------------

  /// Builds the declaration string for `type` with declarator `inner`.
  /// Works inside-out like C declarators do.
  std::string declaration(const TypePtr& type, std::string inner) const {
    switch (type->kind) {
      case TypeKind::Builtin:
      case TypeKind::Struct:
      case TypeKind::Named: {
        std::string spec;
        if (type->is_const) spec += "const ";
        if (type->is_volatile) spec += "volatile ";
        if (type->kind == TypeKind::Struct) spec += "struct ";
        spec += (type->kind == TypeKind::Builtin)
                    ? std::string(purec::to_string(type->builtin))
                    : type->name;
        // Attach leading stars to the specifier ("float** A", "float* a")
        // — the style of the paper's listings.
        std::size_t stars = 0;
        while (stars < inner.size() && inner[stars] == '*') ++stars;
        spec += inner.substr(0, stars);
        inner = inner.substr(stars);
        if (inner.empty()) return spec;
        return spec + " " + inner;
      }
      case TypeKind::Pointer: {
        std::string stars = "*";
        if (type->is_const) stars += "const ";
        if (type->is_volatile) stars += "volatile ";
        if (type->is_restrict) stars += "restrict ";
        return declaration(type->pointee, stars + inner);
      }
      case TypeKind::Array: {
        std::string size =
            type->array_size ? std::to_string(*type->array_size) : "";
        if (!inner.empty() && inner.front() == '*') {
          inner = "(" + inner + ")";
        }
        return declaration(type->element, inner + "[" + size + "]");
      }
    }
    return inner;
  }

  /// Full declaration including the paper's `pure` prefix handling.
  std::string pure_aware_declaration(const TypePtr& type,
                                     const std::string& name) const {
    TypePtr t = type;
    std::string prefix;
    if (t->is_pointer() && t->any_level_pure()) {
      if (options_.pure_handling == PureHandling::Keep) {
        prefix = "pure ";
        t = strip_pure(t);
      } else {
        // Lower: pure pointer -> pointer-to-const (paper §3.2 / Listing 8).
        t = lower_pure_to_const(t);
      }
    }
    return prefix + declaration(t, name);
  }

  static TypePtr strip_pure(const TypePtr& type) {
    auto t = std::make_shared<Type>(*type);
    t->is_pure = false;
    if (t->pointee) t->pointee = strip_pure(t->pointee);
    if (t->element) t->element = strip_pure(t->element);
    return t;
  }

  static TypePtr lower_pure_to_const(const TypePtr& type) {
    auto t = std::make_shared<Type>(*type);
    const bool was_pure = t->is_pure;
    t->is_pure = false;
    if (t->pointee) {
      t->pointee = lower_pure_to_const(t->pointee);
      if (was_pure) t->pointee = t->pointee->with_const(true);
    }
    if (t->element) t->element = lower_pure_to_const(t->element);
    return t;
  }

  // -- expressions ---------------------------------------------------------

  void expr(const Expr& e, int parent_precedence = 0) {
    const int prec = precedence(e);
    const bool parens = prec < parent_precedence;
    if (parens) out_ << "(";
    expr_impl(e);
    if (parens) out_ << ")";
  }

  void expr_impl(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::IntLiteral: {
        const auto& n = static_cast<const IntLiteralExpr&>(e);
        out_ << (n.spelling.empty() ? std::to_string(n.value) : n.spelling);
        return;
      }
      case ExprKind::FloatLiteral: {
        const auto& n = static_cast<const FloatLiteralExpr&>(e);
        if (!n.spelling.empty()) {
          out_ << n.spelling;
        } else {
          std::ostringstream tmp;
          tmp << n.value;
          std::string s = tmp.str();
          if (s.find('.') == std::string::npos &&
              s.find('e') == std::string::npos) {
            s += ".0";
          }
          out_ << s;
        }
        return;
      }
      case ExprKind::CharLiteral:
        out_ << static_cast<const CharLiteralExpr&>(e).spelling;
        return;
      case ExprKind::StringLiteral:
        out_ << static_cast<const StringLiteralExpr&>(e).spelling;
        return;
      case ExprKind::Ident:
        out_ << static_cast<const IdentExpr&>(e).name;
        return;
      case ExprKind::Unary: {
        const auto& n = static_cast<const UnaryExpr&>(e);
        if (n.op == UnaryOp::PostInc || n.op == UnaryOp::PostDec) {
          expr(*n.operand, 90);
          out_ << to_string(n.op);
        } else {
          out_ << to_string(n.op);
          // `- -x` must not merge into `--x`.
          if (n.op == UnaryOp::Minus &&
              n.operand->kind() == ExprKind::Unary &&
              static_cast<const UnaryExpr&>(*n.operand).op ==
                  UnaryOp::Minus) {
            out_ << " ";
          }
          expr(*n.operand, 80);
        }
        return;
      }
      case ExprKind::Binary: {
        const auto& n = static_cast<const BinaryExpr&>(e);
        const int prec = precedence(e);
        if (n.op == BinaryOp::Comma) {
          expr(*n.lhs, prec);
          out_ << ", ";
          expr(*n.rhs, prec + 1);
          return;
        }
        expr(*n.lhs, prec);
        out_ << " " << to_string(n.op) << " ";
        expr(*n.rhs, prec + 1);  // left-associative
        return;
      }
      case ExprKind::Assign: {
        const auto& n = static_cast<const AssignExpr&>(e);
        expr(*n.lhs, 20);
        out_ << " " << to_string(n.op) << " ";
        expr(*n.rhs, 10);  // right-associative
        return;
      }
      case ExprKind::Conditional: {
        const auto& n = static_cast<const ConditionalExpr&>(e);
        expr(*n.cond, 25);
        out_ << " ? ";
        expr(*n.then_expr, 0);
        out_ << " : ";
        expr(*n.else_expr, 20);
        return;
      }
      case ExprKind::Call: {
        const auto& n = static_cast<const CallExpr&>(e);
        expr(*n.callee, 90);
        out_ << "(";
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i != 0) out_ << ", ";
          expr(*n.args[i], 10);
        }
        out_ << ")";
        return;
      }
      case ExprKind::Index: {
        const auto& n = static_cast<const IndexExpr&>(e);
        expr(*n.base, 90);
        out_ << "[";
        expr(*n.index, 0);
        out_ << "]";
        return;
      }
      case ExprKind::Member: {
        const auto& n = static_cast<const MemberExpr&>(e);
        expr(*n.base, 90);
        out_ << (n.is_arrow ? "->" : ".") << n.member;
        return;
      }
      case ExprKind::Cast: {
        const auto& n = static_cast<const CastExpr&>(e);
        out_ << "(" << cast_type(n.target_type) << ")";
        expr(*n.operand, 80);
        return;
      }
      case ExprKind::Sizeof: {
        const auto& n = static_cast<const SizeofExpr&>(e);
        if (n.of_type) {
          out_ << "sizeof(" << cast_type(n.of_type) << ")";
        } else {
          out_ << "sizeof ";
          expr(*n.operand, 80);
        }
        return;
      }
    }
  }

  [[nodiscard]] std::string cast_type(const TypePtr& type) const {
    TypePtr t = type;
    std::string prefix;
    if (t->any_level_pure()) {
      if (options_.pure_handling == PureHandling::Keep) {
        prefix = "pure ";
        t = strip_pure(t);
      } else {
        t = lower_pure_to_const(t);
      }
    }
    return prefix + declaration(t, "");
  }

  // -- statements --------------------------------------------------------

  void indent() {
    for (int i = 0; i < depth_ * options_.indent_width; ++i) out_ << ' ';
  }

  void stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::Compound: {
        indent();
        out_ << "{\n";
        ++depth_;
        for (const StmtPtr& child :
             static_cast<const CompoundStmt&>(s).stmts) {
          stmt(*child);
        }
        --depth_;
        indent();
        out_ << "}\n";
        return;
      }
      case StmtKind::Decl: {
        const auto& n = static_cast<const DeclStmt&>(s);
        indent();
        for (std::size_t i = 0; i < n.decls.size(); ++i) {
          const VarDecl& d = n.decls[i];
          if (i != 0) out_ << " ";
          if (d.is_static) out_ << "static ";
          out_ << pure_aware_declaration(d.type, d.name);
          if (d.init) {
            out_ << " = ";
            expr(*d.init, 10);
          }
          out_ << ";";
        }
        out_ << "\n";
        return;
      }
      case StmtKind::Expr: {
        indent();
        expr(*static_cast<const ExprStmt&>(s).expr, 0);
        out_ << ";\n";
        return;
      }
      case StmtKind::If: {
        const auto& n = static_cast<const IfStmt&>(s);
        indent();
        out_ << "if (";
        expr(*n.cond, 0);
        out_ << ")\n";
        child_stmt(*n.then_stmt);
        if (n.else_stmt) {
          indent();
          out_ << "else\n";
          child_stmt(*n.else_stmt);
        }
        return;
      }
      case StmtKind::For: {
        const auto& n = static_cast<const ForStmt&>(s);
        indent();
        out_ << "for (";
        print_for_init(n);
        out_ << " ";
        if (n.cond) expr(*n.cond, 0);
        out_ << "; ";
        if (n.inc) expr(*n.inc, 0);
        out_ << ")\n";
        child_stmt(*n.body);
        return;
      }
      case StmtKind::While: {
        const auto& n = static_cast<const WhileStmt&>(s);
        indent();
        out_ << "while (";
        expr(*n.cond, 0);
        out_ << ")\n";
        child_stmt(*n.body);
        return;
      }
      case StmtKind::DoWhile: {
        const auto& n = static_cast<const DoWhileStmt&>(s);
        indent();
        out_ << "do\n";
        child_stmt(*n.body);
        indent();
        out_ << "while (";
        expr(*n.cond, 0);
        out_ << ");\n";
        return;
      }
      case StmtKind::Return: {
        const auto& n = static_cast<const ReturnStmt&>(s);
        indent();
        out_ << "return";
        if (n.value) {
          out_ << " ";
          expr(*n.value, 0);
        }
        out_ << ";\n";
        return;
      }
      case StmtKind::Break:
        indent();
        out_ << "break;\n";
        return;
      case StmtKind::Continue:
        indent();
        out_ << "continue;\n";
        return;
      case StmtKind::Null:
        indent();
        out_ << ";\n";
        return;
      case StmtKind::Pragma:
        // Pragmas always flush left: they are preprocessor lines.
        out_ << static_cast<const PragmaStmt&>(s).text << "\n";
        return;
    }
  }

  void print_for_init(const ForStmt& n) {
    if (!n.init || n.init->kind() == StmtKind::Null) {
      out_ << ";";
      return;
    }
    if (const auto* d = stmt_cast<DeclStmt>(n.init.get())) {
      for (std::size_t i = 0; i < d->decls.size(); ++i) {
        const VarDecl& v = d->decls[i];
        if (i == 0) {
          out_ << pure_aware_declaration(v.type, v.name);
        } else {
          // Shared specifier in `for (int i = 0, j = 1; ...)`.
          out_ << ", " << v.name;
        }
        if (v.init) {
          out_ << " = ";
          expr(*v.init, 10);
        }
      }
      out_ << ";";
      return;
    }
    if (const auto* es = stmt_cast<ExprStmt>(n.init.get())) {
      expr(*es->expr, 0);
      out_ << ";";
      return;
    }
    out_ << ";";
  }

  void child_stmt(const Stmt& s) {
    if (s.kind() == StmtKind::Compound) {
      stmt(s);
      return;
    }
    ++depth_;
    stmt(s);
    --depth_;
  }

  // -- top level -----------------------------------------------------------

  void function(const FunctionDecl& fn) {
    if (fn.is_pure && options_.pure_handling == PureHandling::Keep) {
      out_ << "pure ";
    }
    if (fn.annotate_gcc_pure &&
        options_.pure_handling == PureHandling::Lower) {
      // The verified guarantee survives lowering as the (unchecked) GCC
      // hint the paper contrasts with in §2.1.
      out_ << "__attribute__((pure)) ";
    }
    std::string params;
    if (fn.params.empty()) {
      params = fn.is_variadic ? "..." : "";
    } else {
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (i != 0) params += ", ";
        params += pure_aware_declaration(fn.params[i].type,
                                         fn.params[i].name);
      }
      if (fn.is_variadic) params += ", ...";
    }
    if (fn.is_static) out_ << "static ";
    out_ << declaration(Printer::strip_pure(fn.return_type),
                        fn.name + "(" + params + ")");
    if (fn.body) {
      out_ << "\n";
      stmt(*fn.body);
    } else {
      out_ << ";\n";
    }
  }

  void translation_unit(const TranslationUnit& tu) {
    for (const TopLevelItem& item : tu.items) {
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, std::string>) {
              out_ << node << "\n";
            } else if constexpr (std::is_same_v<
                                     T, std::unique_ptr<FunctionDecl>>) {
              function(*node);
            } else if constexpr (std::is_same_v<
                                     T, std::unique_ptr<GlobalVarDecl>>) {
              if (node->is_extern) out_ << "extern ";
              if (node->is_static) out_ << "static ";
              out_ << pure_aware_declaration(node->var.type, node->var.name);
              if (node->var.init) {
                out_ << " = ";
                expr(*node->var.init, 10);
              }
              out_ << ";\n";
            } else if constexpr (std::is_same_v<
                                     T, std::unique_ptr<StructDecl>>) {
              out_ << "struct " << node->tag << " {\n";
              for (const StructField& f : node->fields) {
                out_ << "  " << pure_aware_declaration(f.type, f.name)
                     << ";\n";
              }
              out_ << "};\n";
            } else if constexpr (std::is_same_v<
                                     T, std::unique_ptr<TypedefDecl>>) {
              out_ << "typedef "
                   << declaration(Printer::strip_pure(node->underlying),
                                  node->name)
                   << ";\n";
            }
          },
          item.node);
    }
  }

 private:
  const PrintOptions& options_;
  std::ostringstream out_;
  int depth_ = 0;
};

}  // namespace

std::string print_c(const TranslationUnit& tu, const PrintOptions& options) {
  Printer p(options);
  p.translation_unit(tu);
  return p.take();
}

std::string print_c(const Stmt& stmt, const PrintOptions& options) {
  Printer p(options);
  p.stmt(stmt);
  return p.take();
}

std::string print_c(const Expr& e, const PrintOptions& options) {
  Printer p(options);
  p.expr(e, 0);
  return p.take();
}

std::string format_declaration(const TypePtr& type, const std::string& name,
                               PureHandling pure_handling) {
  PrintOptions options;
  options.pure_handling = pure_handling;
  Printer p(options);
  return p.pure_aware_declaration(type, name);
}

}  // namespace purec
