#include "polyhedral/codegen.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "ast/walk.h"
#include "support/rational.h"

namespace purec::poly {

const std::string& codegen_prelude() {
  static const std::string kPrelude =
      "#ifndef PUREC_POLY_HELPERS\n"
      "#define PUREC_POLY_HELPERS\n"
      "#define floord(n, d) "
      "(((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))\n"
      "#define ceild(n, d) floord((n) + (d) - 1, (d))\n"
      "#define purec_max(a, b) (((a) > (b)) ? (a) : (b))\n"
      "#define purec_min(a, b) (((a) < (b)) ? (a) : (b))\n"
      "#endif\n";
  return kPrelude;
}

namespace {

/// Builds an AST expression for an affine combination of named variables.
[[nodiscard]] ExprPtr affine_to_expr(const IntVec& coeffs,
                                     std::int64_t constant,
                                     const std::vector<std::string>& names) {
  ExprPtr acc;
  const auto add_term = [&](ExprPtr term, bool negative) {
    if (!acc) {
      if (negative) {
        acc = std::make_unique<UnaryExpr>(UnaryOp::Minus, std::move(term));
      } else {
        acc = std::move(term);
      }
      return;
    }
    acc = std::make_unique<BinaryExpr>(
        negative ? BinaryOp::Sub : BinaryOp::Add, std::move(acc),
        std::move(term));
  };

  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0) continue;
    const std::int64_t a = coeffs[i] < 0 ? -coeffs[i] : coeffs[i];
    ExprPtr term = std::make_unique<IdentExpr>(names[i]);
    if (a != 1) {
      term = std::make_unique<BinaryExpr>(
          BinaryOp::Mul, std::make_unique<IntLiteralExpr>(a),
          std::move(term));
    }
    add_term(std::move(term), coeffs[i] < 0);
  }
  if (constant != 0 || !acc) {
    if (!acc) {
      acc = std::make_unique<IntLiteralExpr>(constant);
    } else if (constant > 0) {
      acc = std::make_unique<BinaryExpr>(
          BinaryOp::Add, std::move(acc),
          std::make_unique<IntLiteralExpr>(constant));
    } else {
      acc = std::make_unique<BinaryExpr>(
          BinaryOp::Sub, std::move(acc),
          std::make_unique<IntLiteralExpr>(-constant));
    }
  }
  return acc;
}

[[nodiscard]] ExprPtr call_helper(const std::string& name, ExprPtr a,
                                  ExprPtr b) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(a));
  args.push_back(std::move(b));
  return std::make_unique<CallExpr>(std::make_unique<IdentExpr>(name),
                                    std::move(args));
}

/// Renders one bound as an expression; divisor > 1 becomes ceild/floord.
[[nodiscard]] ExprPtr bound_to_expr(const VarBound& bound, bool lower,
                                    const std::vector<std::string>& names) {
  ExprPtr base = affine_to_expr(bound.coeffs, bound.constant, names);
  if (bound.divisor == 1) return base;
  return call_helper(lower ? "ceild" : "floord", std::move(base),
                     std::make_unique<IntLiteralExpr>(bound.divisor));
}

/// Combines several bounds with purec_max (lower) / purec_min (upper).
[[nodiscard]] ExprPtr combine_bounds(const std::vector<VarBound>& bounds,
                                     bool lower,
                                     const std::vector<std::string>& names) {
  ExprPtr acc;
  for (const VarBound& b : bounds) {
    ExprPtr e = bound_to_expr(b, lower, names);
    if (!acc) {
      acc = std::move(e);
    } else {
      acc = call_helper(lower ? "purec_max" : "purec_min", std::move(acc),
                        std::move(e));
    }
  }
  return acc;
}

/// for (int name = lower; name <= upper; name++) { body }
[[nodiscard]] StmtPtr make_loop(const std::string& name, ExprPtr lower,
                                ExprPtr upper, StmtPtr body) {
  auto loop = std::make_unique<ForStmt>();
  auto init = std::make_unique<DeclStmt>();
  VarDecl v;
  v.name = name;
  v.type = Type::make_builtin(BuiltinKind::Int);
  v.init = std::move(lower);
  init->decls.push_back(std::move(v));
  loop->init = std::move(init);
  loop->cond = std::make_unique<BinaryExpr>(
      BinaryOp::LessEqual, std::make_unique<IdentExpr>(name),
      std::move(upper));
  loop->inc = std::make_unique<UnaryExpr>(
      UnaryOp::PostInc, std::make_unique<IdentExpr>(name));
  loop->body = std::move(body);
  return loop;
}

}  // namespace

namespace {

[[nodiscard]] std::int64_t substitution_constant(
    const IteratorSubstitution& substitution, std::size_t j) {
  return j < substitution.iterator_constant.size()
             ? substitution.iterator_constant[j]
             : 0;
}

/// Replaces each old iterator's identifier in a walked slot with its
/// affine replacement, and does not descend into the replacement.
[[nodiscard]] ExprSlotFn substitute_iterators(
    const std::vector<std::string>& old_names,
    const IteratorSubstitution& substitution) {
  return [&old_names, &substitution](ExprPtr& slot) -> bool {
    const auto* ident = expr_cast<IdentExpr>(slot.get());
    if (ident == nullptr) return false;
    for (std::size_t j = 0; j < old_names.size(); ++j) {
      if (ident->name == old_names[j]) {
        slot = affine_to_expr(substitution.iterator_replacement[j],
                              substitution_constant(substitution, j),
                              substitution.names);
        return true;
      }
    }
    return false;
  };
}

}  // namespace

void apply_iterator_substitution(ExprPtr& expr,
                                 const std::vector<std::string>& old_names,
                                 const IteratorSubstitution& substitution) {
  for_each_expr_slot(expr, substitute_iterators(old_names, substitution));
}

namespace {

/// Composes "reduction(op:acc,...)" clauses for every exemptible
/// reduction statement accepted by `in_scope`, grouped by operator token
/// in first-appearance order. Empty when no reduction is in scope.
[[nodiscard]] std::string reduction_clauses(
    const Scop& scop,
    const std::function<bool(const ScopStatement&)>& in_scope) {
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  for (const ScopStatement& stmt : scop.statements) {
    if (!reduction_exemptible(stmt.reduction_op) || !in_scope(stmt)) {
      continue;
    }
    const std::string token = reduction_token(stmt.reduction_op);
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const auto& g) { return g.first == token; });
    if (it == groups.end()) {
      groups.emplace_back(token, std::vector<std::string>{});
      it = std::prev(groups.end());
    }
    if (std::find(it->second.begin(), it->second.end(),
                  stmt.reduction_accumulator) == it->second.end()) {
      it->second.push_back(stmt.reduction_accumulator);
    }
  }
  std::string out;
  for (const auto& [token, names] : groups) {
    if (!out.empty()) out += " ";
    out += "reduction(" + token + ":";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i != 0) out += ",";
      out += names[i];
    }
    out += ")";
  }
  return out;
}

/// The value of an integer literal, possibly negated; nullopt for any
/// other expression.
[[nodiscard]] std::optional<std::int64_t> literal_value(const Expr& e) {
  if (const auto* lit = expr_cast<IntLiteralExpr>(&e)) return lit->value;
  const auto* neg = expr_cast<UnaryExpr>(&e);
  if (neg == nullptr || neg->op != UnaryOp::Minus) return std::nullopt;
  const auto* lit = expr_cast<IntLiteralExpr>(neg->operand.get());
  if (lit == nullptr) return std::nullopt;
  return -lit->value;
}

/// `original` (a loop's lower bound, or its upper bound operand)
/// combined with the bounds `extra` by purec_max (lower) or purec_min
/// (upper), `shift` added to each extra bound (1 turns an inclusive upper
/// bound into the exclusive one a `<` test needs). Constant operands fold
/// into one literal, which follows a non-constant `original`.
[[nodiscard]] ExprPtr tighten_bound(ExprPtr original,
                                    const std::vector<VarBound>& extra,
                                    bool lower, std::int64_t shift,
                                    const std::vector<std::string>& names) {
  const std::optional<std::int64_t> original_constant =
      literal_value(*original);
  std::optional<std::int64_t> constant = original_constant;
  std::vector<VarBound> terms;
  for (const VarBound& b : extra) {
    // floord(e, d) + k == floord(e + k * d, d): the shift stays exact.
    VarBound t{b.coeffs,
               checked_add(b.constant, checked_mul(shift, b.divisor)),
               b.divisor};
    if (std::any_of(t.coeffs.begin(), t.coeffs.end(),
                    [](std::int64_t c) { return c != 0; })) {
      terms.push_back(std::move(t));
      continue;
    }
    const std::int64_t v = lower ? ceil_div(t.constant, t.divisor)
                                 : floor_div(t.constant, t.divisor);
    if (!constant) {
      constant = v;
    } else {
      constant = lower ? std::max(*constant, v) : std::min(*constant, v);
    }
  }
  std::vector<ExprPtr> operands;
  if (!original_constant) operands.push_back(std::move(original));
  if (constant) {
    operands.push_back(std::make_unique<IntLiteralExpr>(*constant));
  }
  if (ExprPtr rest = combine_bounds(terms, lower, names)) {
    operands.push_back(std::move(rest));
  }
  ExprPtr acc = std::move(operands.front());
  for (std::size_t i = 1; i < operands.size(); ++i) {
    acc = call_helper(lower ? "purec_max" : "purec_min", std::move(acc),
                      std::move(operands[i]));
  }
  return acc;
}

/// True when `e` may move into a generated loop bound: it reads no
/// opaque name (Scop::opaque_names) and has no cast or unsigned literal
/// that would change the conversions purec_min/purec_max compare under.
[[nodiscard]] bool plain_signed(const Expr& e, const Scop& scop) {
  bool plain = true;
  for_each_expr(e, [&](const Expr& x) {
    if (x.kind() == ExprKind::Cast) plain = false;
    if (const auto* lit = expr_cast<IntLiteralExpr>(&x)) {
      if (lit->spelling.find_first_of("uU") != std::string::npos) {
        plain = false;
      }
    }
    if (const auto* ident = expr_cast<IdentExpr>(&x)) {
      if (std::find(scop.opaque_names.begin(), scop.opaque_names.end(),
                    ident->name) != scop.opaque_names.end()) {
        plain = false;
      }
    }
  });
  return plain;
}

/// The bounds constraint `c` puts on iterator `j`, added to `lower` /
/// `upper`: `a*j + r >= 0` bounds j from below when a > 0 and from above
/// when a < 0; an equality does both. A constraint the loop's own bounds
/// already state adds nothing. False when `c` cannot become a bound of
/// loop `j`: it does not read j, or it reads an iterator that is not
/// invariant in loop j (of a loop that does not enclose j) or not
/// printable by name (a strided one: the model holds its trip count).
[[nodiscard]] bool bound_from_guard(const Scop& scop, std::size_t j,
                                    const Constraint& c,
                                    std::vector<VarBound>& lower,
                                    std::vector<VarBound>& upper) {
  const std::size_t d = scop.depth();
  const std::int64_t a = c.coeffs[j];
  if (a == 0) return false;
  for (std::size_t k = 0; k < d; ++k) {
    if (k == j || c.coeffs[k] == 0) continue;
    if (k < scop.strides.size() && scop.strides[k] != 1) return false;
    std::size_t p = scop.loop_parents[j];
    while (p != Scop::npos && p != k) p = scop.loop_parents[p];
    if (p == Scop::npos) return false;
  }
  const auto& known = scop.domain.constraints();
  if (std::any_of(known.begin(), known.end(), [&c](const Constraint& k) {
        return k.kind == c.kind && k.constant == c.constant &&
               k.coeffs == c.coeffs;
      })) {
    return true;
  }
  // a*j + r >= 0 (or == 0) puts j against r / -a: from below when
  // a > 0, from above when a < 0, on both sides for an equality.
  VarBound value{c.coeffs, c.constant, a > 0 ? a : -a};
  value.coeffs[j] = 0;
  if (a > 0) {
    for (std::int64_t& v : value.coeffs) v = -v;
    value.constant = -value.constant;
  }
  if (c.kind == ConstraintKind::Equality) {
    lower.push_back(value);
    upper.push_back(std::move(value));
  } else {
    (a > 0 ? lower : upper).push_back(std::move(value));
  }
  return true;
}

/// Maps every `if` of `copy`, a fresh clone of `original`, to the model
/// of its original (Scop::guards), walking both trees in step.
void map_guards(const Stmt& original, const Stmt& copy, const Scop& scop,
                std::map<const IfStmt*, const ScopGuard*>& out) {
  switch (original.kind()) {
    case StmtKind::For:
      map_guards(*static_cast<const ForStmt&>(original).body,
                 *static_cast<const ForStmt&>(copy).body, scop, out);
      return;
    case StmtKind::Compound: {
      const auto& a = static_cast<const CompoundStmt&>(original).stmts;
      const auto& b = static_cast<const CompoundStmt&>(copy).stmts;
      for (std::size_t i = 0; i < a.size(); ++i) {
        map_guards(*a[i], *b[i], scop, out);
      }
      return;
    }
    case StmtKind::If: {
      const auto& a = static_cast<const IfStmt&>(original);
      const auto& b = static_cast<const IfStmt&>(copy);
      for (const ScopGuard& guard : scop.guards) {
        if (guard.ast == &a) out.emplace(&b, &guard);
      }
      map_guards(*a.then_stmt, *b.then_stmt, scop, out);
      if (a.else_stmt) map_guards(*a.else_stmt, *b.else_stmt, scop, out);
      return;
    }
    default:
      return;
  }
}

/// The slots of the top-level `&&` conjuncts of `cond`, in
/// guard_conjuncts order.
void conjunct_slots(ExprPtr& cond, std::vector<ExprPtr*>& out) {
  auto* b = expr_cast<BinaryExpr>(cond.get());
  if (b == nullptr || b->op != BinaryOp::LogicalAnd) {
    out.push_back(&cond);
    return;
  }
  conjunct_slots(b->lhs, out);
  conjunct_slots(b->rhs, out);
}

/// Folds guards on loop `j`'s own iterator into its bounds, as CLooG's
/// scan of the statement domains would: while the (pruned) body is one
/// `if (C) S` without else, every conjunct of C that bounds the iterator
/// by loop-invariant affine terms moves into the bounds (purec_max on the
/// lower bound, purec_min on the upper one), and the rest stays as the
/// `if`. `guard_of` maps each `if` of the copy to its model; an `if` in
/// `inverted` tests the negation of its model's condition (its then
/// branch was pruned), which folds only whole. The loop must step by one
/// and declare its iterator, so no code after it reads the iterator's
/// final value; its bounds and every folded conjunct must be
/// plain_signed. Returns how many guards folded.
[[nodiscard]] std::size_t fold_guards(
    ForStmt& loop, std::size_t j, const Scop& scop,
    const std::map<const IfStmt*, const ScopGuard*>& guard_of,
    const std::set<const IfStmt*>& inverted) {
  if (j < scop.strides.size() && scop.strides[j] != 1) return 0;
  auto* init = stmt_cast<DeclStmt>(loop.init.get());
  if (init == nullptr || init->decls.size() != 1 || !init->decls[0].init) {
    return 0;
  }
  std::vector<ExprPtr*> tests;
  conjunct_slots(loop.cond, tests);
  auto* test = expr_cast<BinaryExpr>(tests.back()->get());
  if (test == nullptr ||
      (test->op != BinaryOp::Less && test->op != BinaryOp::LessEqual) ||
      !plain_signed(*test->lhs, scop) || !plain_signed(*test->rhs, scop) ||
      !plain_signed(*init->decls[0].init, scop)) {
    return 0;
  }
  const std::vector<std::string> names = scop.space_names();
  std::size_t folded = 0;
  for (;;) {
    StmtPtr* slot = &loop.body;
    if (auto* block = stmt_cast<CompoundStmt>(slot->get());
        block != nullptr && block->stmts.size() == 1) {
      slot = &block->stmts.front();
    }
    auto* branch = stmt_cast<IfStmt>(slot->get());
    if (branch == nullptr || branch->else_stmt) return folded;
    const auto it = guard_of.find(branch);
    if (it == guard_of.end()) return folded;
    const ScopGuard& guard = *it->second;

    std::vector<VarBound> lower;
    std::vector<VarBound> upper;
    const auto fold_all = [&](const std::vector<Constraint>& constraints) {
      std::vector<VarBound> lo;
      std::vector<VarBound> up;
      for (const Constraint& c : constraints) {
        if (!bound_from_guard(scop, j, c, lo, up)) return false;
      }
      lower.insert(lower.end(), lo.begin(), lo.end());
      upper.insert(upper.end(), up.begin(), up.end());
      return true;
    };
    std::vector<ExprPtr> residual;
    if (inverted.count(branch) != 0) {
      if (!guard.negation || !plain_signed(*branch->cond, scop) ||
          !fold_all(*guard.negation)) {
        return folded;
      }
    } else {
      std::vector<ExprPtr*> conjuncts;
      conjunct_slots(branch->cond, conjuncts);
      if (conjuncts.size() != guard.conjuncts.size()) return folded;
      std::vector<bool> kept(conjuncts.size());
      for (std::size_t i = 0; i < conjuncts.size(); ++i) {
        kept[i] = !guard.conjuncts[i] ||
                  !plain_signed(**conjuncts[i], scop) ||
                  !fold_all(*guard.conjuncts[i]);
      }
      if (std::count(kept.begin(), kept.end(), false) == 0) return folded;
      for (std::size_t i = 0; i < conjuncts.size(); ++i) {
        if (kept[i]) residual.push_back(std::move(*conjuncts[i]));
      }
    }

    ExprPtr& start = init->decls[0].init;
    if (!lower.empty()) {
      start = tighten_bound(std::move(start), lower, true, 0, names);
    }
    if (!upper.empty()) {
      const std::int64_t shift = test->op == BinaryOp::Less ? 1 : 0;
      test->rhs =
          tighten_bound(std::move(test->rhs), upper, false, shift, names);
    }
    ++folded;
    if (!residual.empty()) {
      ExprPtr cond = std::move(residual.front());
      for (std::size_t i = 1; i < residual.size(); ++i) {
        cond = std::make_unique<BinaryExpr>(
            BinaryOp::LogicalAnd, std::move(cond), std::move(residual[i]));
      }
      branch->cond = std::move(cond);
      return folded;
    }
    StmtPtr then_stmt = std::move(branch->then_stmt);
    if (slot != &loop.body && then_stmt->kind() == StmtKind::Compound) {
      loop.body = std::move(then_stmt);
    } else {
      *slot = std::move(then_stmt);
    }
  }
}

[[nodiscard]] bool couples_iterators(const ConstraintSystem& domain,
                                     std::size_t d) {
  for (const Constraint& c : domain.constraints()) {
    std::size_t coupled = 0;
    for (std::size_t i = 0; i < d && i < c.coeffs.size(); ++i) {
      if (c.coeffs[i] != 0) ++coupled;
    }
    if (coupled >= 2) return true;
  }
  return false;
}

}  // namespace

bool domain_is_imbalanced(const Scop& scop) {
  const std::size_t d = scop.depth();
  if (d < 2) return false;
  if (couples_iterators(scop.domain, d)) return true;
  for (const ScopStatement& stmt : scop.statements) {
    if (stmt.domain.dimensions() > 0 && couples_iterators(stmt.domain, d)) {
      return true;
    }
  }
  return false;
}

StmtPtr generate_code(const Scop& scop, const Transform& transform,
                      const CodegenOptions& options,
                      IteratorSubstitution* substitution_out,
                      std::size_t* collapse_out,
                      std::string* schedule_out,
                      std::size_t* simd_loops_out) {
  const std::size_t d = scop.depth();
  const std::size_t p = scop.parameters.size();
  const IntMat& T = transform.matrix;
  const IntMat Tinv = T.inverse_unimodular();

  // New iterator names t1..td (PluTo's convention), avoiding collisions
  // with parameters and arrays.
  std::vector<std::string> point_names;
  for (std::size_t i = 0; i < d; ++i) {
    std::string name = 't' + std::to_string(i + 1);
    while (std::find(scop.parameters.begin(), scop.parameters.end(), name) !=
               scop.parameters.end() ||
           std::find(scop.iterators.begin(), scop.iterators.end(), name) !=
               scop.iterators.end()) {
      name = "_" + name;
    }
    point_names.push_back(name);
  }

  const bool do_tile =
      options.tile && transform.band_size >= 2 && options.tile_size > 1;
  const std::size_t tiled_dims = do_tile ? transform.band_size : 0;

  std::vector<std::string> tile_names;
  for (std::size_t i = 0; i < tiled_dims; ++i) {
    tile_names.push_back(point_names[i] + "t");
  }

  // Variable order for generation: [tiles..., points..., params...].
  const std::size_t loop_vars = tiled_dims + d;
  const std::size_t dims = loop_vars + p;
  std::vector<std::string> names;
  names.insert(names.end(), tile_names.begin(), tile_names.end());
  names.insert(names.end(), point_names.begin(), point_names.end());
  names.insert(names.end(), scop.parameters.begin(), scop.parameters.end());

  ConstraintSystem sys(dims);
  // Transformed domain: original constraint a.i + b.p + k ~ 0 with
  // i = Tinv.c becomes (a.Tinv).c + b.p + k ~ 0.
  for (const Constraint& c : scop.domain.constraints()) {
    IntVec coeffs(dims, 0);
    for (std::size_t col = 0; col < d; ++col) {
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < d; ++i) {
        acc = checked_add(acc, checked_mul(c.coeffs[i], Tinv.at(i, col)));
      }
      coeffs[tiled_dims + col] = acc;
    }
    for (std::size_t i = 0; i < p; ++i) {
      coeffs[loop_vars + i] = c.coeffs[d + i];
    }
    sys.add(Constraint{c.kind, std::move(coeffs), c.constant});
  }
  // Tile containment: 0 <= c_k - B*ct_k <= B-1.
  for (std::size_t k = 0; k < tiled_dims; ++k) {
    IntVec lo(dims, 0);
    lo[tiled_dims + k] = 1;
    lo[k] = -options.tile_size;
    sys.add_inequality(std::move(lo), 0);
    IntVec hi(dims, 0);
    hi[tiled_dims + k] = -1;
    hi[k] = options.tile_size;
    sys.add_inequality(std::move(hi), options.tile_size - 1);
  }

  const std::vector<VarBounds> bounds = sys.derive_bounds(loop_vars);

  // Statement body: original statements with iterators substituted by
  // rows of Tinv over the new point iterators. Strided levels fold their
  // normalization back in: i_j = origin_j + stride_j * (Tinv row j).c,
  // so the source expression the reader sees iterates the original
  // values while the domain variable counts trips.
  std::vector<IntVec> replacement(d);
  std::vector<std::int64_t> constants(d, 0);
  {
    for (std::size_t j = 0; j < d; ++j) {
      const std::int64_t stride =
          j < scop.strides.size() ? scop.strides[j] : 1;
      IntVec coeffs(names.size(), 0);
      for (std::size_t col = 0; col < d; ++col) {
        coeffs[tiled_dims + col] = checked_mul(stride, Tinv.at(j, col));
      }
      if (stride != 1 && j < scop.origins.size()) {
        const AffineForm& origin = scop.origins[j];
        for (std::size_t i = 0; i < p; ++i) {
          if (d + i < origin.coeffs.size()) {
            coeffs[loop_vars + i] = origin.coeffs[d + i];
          }
        }
        constants[j] = origin.constant;
      }
      replacement[j] = std::move(coeffs);
    }
  }

  IteratorSubstitution substitution;
  substitution.names = names;
  substitution.iterator_replacement = replacement;
  substitution.iterator_constant = constants;
  if (substitution_out != nullptr) *substitution_out = substitution;

  auto body = std::make_unique<CompoundStmt>();
  for (const ScopStatement& stmt : scop.statements) {
    StmtPtr cloned = stmt.ast->clone();
    for_each_expr_slot(*cloned,
                       substitute_iterators(scop.iterators, substitution));
    body->stmts.push_back(std::move(cloned));
  }

  // Effective schedule: the user's spec wins; with no spec, an
  // imbalanced-looking domain (triangular inner trip counts) defaults to
  // guided so early big chunks amortize claims and the fine tail absorbs
  // the imbalance. Rectangular domains keep the implementation default.
  ScheduleSpec schedule = options.schedule;
  if (schedule.empty() && options.parallelize &&
      domain_is_imbalanced(scop)) {
    schedule.kind = OmpScheduleKind::Guided;
    schedule.chunk = 4;
  }
  const std::string schedule_clause = schedule.clause();

  // Accumulator clause for the whole band (every statement runs under the
  // pragma'd loop in a classic scop). The simd pragma needs it too: simd
  // asserts no lane-carried dependence, which for the accumulator is only
  // true under the clause's per-lane partials.
  const std::string reduction_clause = reduction_clauses(
      scop, [](const ScopStatement&) { return true; });

  // Privatized scalars (the chain's decision): shared cells whose value
  // never crosses an iteration, so each thread/lane gets its own copy.
  std::string private_clause;
  for (std::size_t i = 0; i < options.privatized.size(); ++i) {
    private_clause += (i == 0 ? "private(" : ", ") + options.privatized[i];
  }
  if (!private_clause.empty()) private_clause += ")";

  // Decide pragma placement.
  const std::size_t outer_parallel = transform.outermost_parallel();
  const bool parallel_outermost =
      options.parallelize && outer_parallel == 0;
  // When the outermost dimension is sequential but an inner one is
  // parallel, the OpenMP pragma goes on that inner *point* loop (valid:
  // all outer point dimensions are fixed there).
  const std::size_t inner_parallel_point =
      (options.parallelize && !parallel_outermost &&
       outer_parallel != Transform::npos)
          ? outer_parallel
          : Transform::npos;

  // Innermost parallel point dimension for the simd hint. When that loop
  // also takes the parallel pragma (a 1-D nest, or a nest whose only
  // parallel loop is the innermost one) the two combine into `parallel
  // for simd`: a standalone `omp simd` line above `omp parallel for`
  // would not compile. A 1-D nest takes the hint only with the pragma.
  std::size_t simd_dim = Transform::npos;
  if ((d > 1 || (d == 1 && options.parallelize)) &&
      transform.parallel[d - 1]) {
    simd_dim = d - 1;
  }
  if (simd_loops_out != nullptr) {
    *simd_loops_out = simd_dim == Transform::npos ? 0 : 1;
  }
  if (!options.simd) simd_dim = Transform::npos;
  // The point loop under the parallel pragma (npos when a tile loop or
  // no loop takes it), and the directive that opens that pragma.
  const std::size_t pragma_point =
      parallel_outermost ? (tiled_dims == 0 ? 0 : Transform::npos)
                         : inner_parallel_point;
  const std::string parallel_directive =
      pragma_point != Transform::npos && pragma_point == simd_dim
          ? "#pragma omp parallel for simd"
          : "#pragma omp parallel for";

  // Build loops inside-out: points innermost-first, then tiles.
  bool parallel_pragma = false;
  StmtPtr current = std::move(body);
  for (std::size_t k = d; k-- > 0;) {
    const VarBounds& vb = bounds[tiled_dims + k];
    ExprPtr lower = combine_bounds(vb.lower, true, names);
    ExprPtr upper = combine_bounds(vb.upper, false, names);
    if (!lower || !upper) {
      // Unbounded loop variable: cannot generate; signal by returning the
      // original nest untouched. (Callers treat this as "no transform".)
      return nullptr;
    }
    StmtPtr loop = make_loop(point_names[k], std::move(lower),
                             std::move(upper), std::move(current));
    auto wrapper = std::make_unique<CompoundStmt>();
    if (k == inner_parallel_point) {
      parallel_pragma = true;
      std::string text = parallel_directive;
      if (!schedule_clause.empty()) text += " " + schedule_clause;
      if (!reduction_clause.empty()) text += " " + reduction_clause;
      if (!private_clause.empty()) text += " " + private_clause;
      wrapper->stmts.push_back(std::make_unique<PragmaStmt>(text));
    } else if (k == simd_dim && k != pragma_point) {
      std::string text = "#pragma omp simd";
      if (!reduction_clause.empty()) text += " " + reduction_clause;
      if (!private_clause.empty()) text += " " + private_clause;
      wrapper->stmts.push_back(std::make_unique<PragmaStmt>(text));
    }
    if (wrapper->stmts.empty()) {
      current = std::move(loop);
    } else {
      wrapper->stmts.push_back(std::move(loop));
      current = std::move(wrapper);
    }
  }
  for (std::size_t k = tiled_dims; k-- > 0;) {
    const VarBounds& vb = bounds[k];
    ExprPtr lower = combine_bounds(vb.lower, true, names);
    ExprPtr upper = combine_bounds(vb.upper, false, names);
    if (!lower || !upper) return nullptr;
    current = make_loop(tile_names[k], std::move(lower), std::move(upper),
                        std::move(current));
  }

  // A fully parallel rectangular tile band spreads its first two tile
  // loops over the threads together: `collapse(2)` hands out tile pairs,
  // so a band whose outer tile loop runs once or a few times (16 bands
  // at 32-row tiles, 10 matmul tile rows on 4 threads) still fills every
  // core. Legal because neither tile dimension carries a dependence;
  // OpenMP needs the second loop's bounds free of the first's iterator.
  const auto rectangular = [&](const std::vector<VarBound>& side) {
    return std::all_of(side.begin(), side.end(),
                       [](const VarBound& b) { return b.coeffs[0] == 0; });
  };
  const std::size_t collapse =
      options.parallelize && parallel_outermost && tiled_dims >= 2 &&
              transform.parallel[1] && rectangular(bounds[1].lower) &&
              rectangular(bounds[1].upper)
          ? 2
          : 0;
  if (collapse_out != nullptr) *collapse_out = collapse;

  auto result = std::make_unique<CompoundStmt>();
  if (parallel_outermost) {
    parallel_pragma = true;
    std::string text = parallel_directive;
    if (collapse != 0) text += " collapse(" + std::to_string(collapse) + ")";
    if (!schedule_clause.empty()) text += " " + schedule_clause;
    if (!reduction_clause.empty()) text += " " + reduction_clause;
    if (!private_clause.empty()) text += " " + private_clause;
    result->stmts.push_back(std::make_unique<PragmaStmt>(text));
  }
  result->stmts.push_back(std::move(current));
  if (parallel_pragma && schedule_out != nullptr) {
    *schedule_out = schedule_clause;
  }
  return result;
}

StmtPtr schedule_region(const Scop& scop,
                        const std::vector<Dependence>& deps,
                        const CodegenOptions& options,
                        const std::vector<std::string>& privatizable,
                        RegionSchedule* result) {
  RegionSchedule local;
  RegionSchedule& rs = result != nullptr ? *result : local;
  rs = RegionSchedule{};
  if (!options.parallelize || scop.root == nullptr) return nullptr;
  const std::size_t d = scop.depth();
  const std::size_t n = scop.statements.size();
  if (d == 0 || n == 0) return nullptr;

  // Per-loop privatizable scalars: the structural write-before-read rule,
  // restricted to what the chain's liveness analysis allows.
  std::vector<std::vector<std::string>> priv(d);
  if (!privatizable.empty()) {
    for (std::size_t j = 0; j < d; ++j) {
      for (const std::string& t : privatizable_scalars(scop, j)) {
        if (std::find(privatizable.begin(), privatizable.end(), t) !=
            privatizable.end()) {
          priv[j].push_back(t);
        }
      }
    }
  }

  // First try the nest whole; when no loop parallelizes (even with
  // privatization) fall back to loop fission so a partially parallel
  // nest splits instead of serializing outright.
  std::vector<FissionGroup> groups;
  {
    const std::vector<bool> all_stmts(n, true);
    bool any_parallel = false;
    for (std::size_t j = 0; j < d && !any_parallel; ++j) {
      any_parallel = loop_is_parallel_for_group(deps, j, all_stmts,
                                                priv[j]);
    }
    if (any_parallel) {
      FissionGroup whole;
      for (std::size_t s = 0; s < n; ++s) whole.statements.push_back(s);
      whole.parallel =
          loop_is_parallel_for_group(deps, 0, all_stmts, priv[0]);
      groups.push_back(std::move(whole));
    } else {
      groups = fission_groups(
          scop, deps,
          priv.empty() ? std::vector<std::string>{} : priv[0]);
      if (groups.size() < 2) return nullptr;
    }
  }

  auto fission_block = std::make_unique<CompoundStmt>();
  StmtPtr single_nest;
  std::size_t total_selected = 0;

  for (const FissionGroup& group : groups) {
    std::vector<bool> in_group(n, false);
    std::set<std::size_t> keep_positions;
    for (std::size_t s : group.statements) {
      in_group[s] = true;
      keep_positions.insert(scop.statements[s].position);
    }

    // Loops present in this group's pruned nest.
    std::vector<bool> relevant(d, false);
    for (std::size_t s : group.statements) {
      for (std::size_t j : statement_loops(scop, scop.statements[s])) {
        relevant[j] = true;
      }
    }

    // Parallel loops for this group (privatization-aware), and the
    // outermost-parallel selection: a loop gets the pragma when no
    // enclosing loop already has one (no nested parallel regions).
    std::vector<bool> parallel(d, false);
    std::vector<bool> parallel_plain(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      if (!relevant[j]) continue;
      parallel[j] = loop_is_parallel_for_group(deps, j, in_group, priv[j]);
      parallel_plain[j] = loop_is_parallel_for_group(deps, j, in_group, {});
    }
    std::vector<bool> selected(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      if (!parallel[j]) continue;
      bool under_selected = false;
      for (std::size_t a = scop.loop_parents[j]; a != Scop::npos;
           a = scop.loop_parents[a]) {
        if (selected[a]) {
          under_selected = true;
          break;
        }
      }
      selected[j] = !under_selected;
    }

    // Parallel leaf loops (within this group's pruned nest) qualify for
    // the vectorization hint, which they carry under options.simd; a leaf
    // that also takes the parallel pragma gets the combined `parallel for
    // simd`. Only plainly parallel loops qualify — a privatization-
    // dependent loop would need its own private clause on the simd
    // pragma.
    std::vector<bool> has_child(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      if (relevant[j] && scop.loop_parents[j] != Scop::npos) {
        has_child[scop.loop_parents[j]] = true;
      }
    }
    std::vector<bool> simd(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      simd[j] = relevant[j] && !has_child[j] && parallel_plain[j];
    }
    const std::size_t group_simd_loops = static_cast<std::size_t>(
        std::count(simd.begin(), simd.end(), true));
    if (!options.simd) simd.assign(d, false);

    // Effective schedule, per pragma'd loop: the user's spec wins; with
    // no spec, a loop whose in-group statements have iterator-coupled
    // (triangular/trapezoidal) domains defaults to guided so the fine
    // tail absorbs the imbalance. Evaluating post-fission, per loop,
    // keeps a fissioned-off rectangular loop from inheriting a
    // triangular sibling's clause.
    const auto clause_for_loop = [&](std::size_t j) -> std::string {
      ScheduleSpec schedule = options.schedule;
      if (schedule.empty()) {
        for (std::size_t s : group.statements) {
          const ScopStatement& stmt = scop.statements[s];
          const std::vector<std::size_t> chain =
              statement_loops(scop, stmt);
          if (std::find(chain.begin(), chain.end(), j) == chain.end()) {
            continue;
          }
          if (couples_iterators(statement_domain(scop, stmt), d)) {
            schedule.kind = OmpScheduleKind::Guided;
            schedule.chunk = 4;
            break;
          }
        }
      }
      return schedule.clause();
    };

    // Accumulators of the group's reduction statements: the pragma gets
    // them as reduction clauses (and the private clause below must never
    // list them — GCC rejects a name in both).
    std::vector<std::string> accumulators;
    for (std::size_t s : group.statements) {
      if (reduction_exemptible(scop.statements[s].reduction_op)) {
        accumulators.push_back(scop.statements[s].reduction_accumulator);
      }
    }
    const auto reduction_for_loop = [&](std::size_t loop_index) {
      return reduction_clauses(scop, [&](const ScopStatement& stmt) {
        const std::size_t idx =
            static_cast<std::size_t>(&stmt - scop.statements.data());
        if (!in_group[idx]) return false;
        const std::vector<std::size_t> chain = statement_loops(scop, stmt);
        return std::find(chain.begin(), chain.end(), loop_index) !=
               chain.end();
      });
    };

    // OpenMP privatizes only the pragma'd loop's own iteration variable.
    // A descendant loop whose iterator lives in an enclosing scope
    // (`int j; ... for (j = 0; ...)` — C89 style, or a canonicalized
    // while whose variable is read after its loop) would be *shared*
    // across threads, racing; list those in an explicit private clause,
    // followed by the privatized scalars the loop's parallelism depends
    // on. (Decl-init descendants are block-scoped and already
    // per-thread.)
    const auto private_for_loop = [&](std::size_t s) -> std::string {
      std::vector<std::string> names;
      for (std::size_t k = 0; k < d; ++k) {
        if (k == s || !relevant[k]) continue;
        bool under = false;
        for (std::size_t a = scop.loop_parents[k]; a != Scop::npos;
             a = scop.loop_parents[a]) {
          if (a == s) {
            under = true;
            break;
          }
        }
        if (!under) continue;
        const ForStmt* ast = scop.loop_asts[k];
        if (ast == nullptr || !ast->init ||
            stmt_cast<ExprStmt>(ast->init.get()) == nullptr) {
          continue;
        }
        if (std::find(accumulators.begin(), accumulators.end(),
                      scop.iterators[k]) != accumulators.end()) {
          continue;
        }
        if (std::find(names.begin(), names.end(), scop.iterators[k]) ==
            names.end()) {
          names.push_back(scop.iterators[k]);
        }
      }
      for (const std::string& t : priv[s]) {
        bool needed = false;
        for (const Dependence& dep : deps) {
          if (dep.is_reduction || dep.array != t ||
              dep.carrier_loop != s) {
            continue;
          }
          if (!in_group[dep.src_stmt] || !in_group[dep.dst_stmt]) {
            continue;
          }
          needed = true;
          break;
        }
        if (!needed) continue;
        if (std::find(names.begin(), names.end(), t) == names.end()) {
          names.push_back(t);
        }
        if (std::find(rs.privatized.begin(), rs.privatized.end(), t) ==
            rs.privatized.end()) {
          rs.privatized.push_back(t);
        }
      }
      if (names.empty()) return "";
      std::string clause = "private(";
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0) clause += ", ";
        clause += names[i];
      }
      clause += ")";
      return clause;
    };

    // Clone the nest, prune it to the group's statements (empty guards,
    // compounds and loops dissolve), and wrap selected loops in their
    // pragmas. The DFS mirrors extraction's pre-order numbering: loops
    // count at entry, assignments count in source order, guard branches
    // descend then-before-else.
    StmtPtr cloned = scop.root->clone();
    std::map<const IfStmt*, const ScopGuard*> guard_of;
    map_guards(*scop.root, *cloned, scop, guard_of);
    std::set<const IfStmt*> inverted;
    std::size_t loop_counter = 0;
    std::size_t stmt_counter = 0;
    std::function<bool(StmtPtr&)> prune = [&](StmtPtr& slot) -> bool {
      if (!slot) return false;
      switch (slot->kind()) {
        case StmtKind::For: {
          const std::size_t index = loop_counter++;
          auto& loop = static_cast<ForStmt&>(*slot);
          const bool kept = prune(loop.body);
          if (!kept) return false;
          if (index < d) {
            rs.guards_folded +=
                fold_guards(loop, index, scop, guard_of, inverted);
          }
          if (index >= d || (!selected[index] && !simd[index])) {
            return true;
          }
          // One pragma per loop: `parallel for`, `simd`, or combined.
          std::string text =
              selected[index] ? "#pragma omp parallel for" : "#pragma omp";
          if (simd[index]) text += " simd";
          const auto add = [&](const std::string& clause) {
            if (!clause.empty()) text += " " + clause;
          };
          if (selected[index]) add(clause_for_loop(index));
          add(reduction_for_loop(index));
          if (selected[index]) add(private_for_loop(index));
          auto wrapper = std::make_unique<CompoundStmt>();
          wrapper->stmts.push_back(std::make_unique<PragmaStmt>(text));
          wrapper->stmts.push_back(std::move(slot));
          slot = std::move(wrapper);
          return true;
        }
        case StmtKind::Compound: {
          auto& block = static_cast<CompoundStmt&>(*slot);
          std::vector<StmtPtr> kept;
          for (StmtPtr& child : block.stmts) {
            if (prune(child)) kept.push_back(std::move(child));
          }
          block.stmts = std::move(kept);
          return !block.stmts.empty();
        }
        case StmtKind::If: {
          auto& branch = static_cast<IfStmt&>(*slot);
          const bool kept_then = prune(branch.then_stmt);
          const bool kept_else =
              branch.else_stmt ? prune(branch.else_stmt) : false;
          if (!kept_then && !kept_else) return false;
          if (!kept_else) branch.else_stmt = nullptr;
          if (!kept_then) {
            // Only the else side survived: test the negation rather than
            // print an empty then-branch.
            branch.cond = std::make_unique<UnaryExpr>(UnaryOp::Not,
                                                      std::move(branch.cond));
            branch.then_stmt = std::move(branch.else_stmt);
            inverted.insert(&branch);
          }
          return true;
        }
        case StmtKind::Expr: {
          const auto& es = static_cast<const ExprStmt&>(*slot);
          if (expr_cast<AssignExpr>(es.expr.get()) == nullptr) {
            return false;
          }
          return keep_positions.count(stmt_counter++) != 0;
        }
        default:
          // Null statements (and stray pragmas) carry no computation;
          // pruned copies drop them.
          return false;
      }
    };
    if (!prune(cloned)) continue;
    rs.simd_loops += group_simd_loops;

    bool group_selected = false;
    for (std::size_t j = 0; j < d; ++j) {
      if (!selected[j]) continue;
      group_selected = true;
      ++total_selected;
      rs.parallel_loops.push_back(j);
      if (rs.schedule_clause.empty()) {
        rs.schedule_clause = clause_for_loop(j);
      }
    }
    if (group_selected) ++rs.parallel_groups;
    if (groups.size() == 1) {
      single_nest = std::move(cloned);
    } else {
      fission_block->stmts.push_back(std::move(cloned));
    }
  }

  if (total_selected == 0) {
    rs = RegionSchedule{};
    return nullptr;
  }
  rs.groups = groups.size();
  rs.fissioned = groups.size() > 1;
  if (!rs.fissioned) return single_nest;
  return fission_block;
}

}  // namespace purec::poly
