#include "polyhedral/model.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "ast/walk.h"
#include "support/rational.h"

namespace purec::poly {

std::string AffineForm::to_string(
    const std::vector<std::string>& names) const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0) continue;
    if (!first) out << (coeffs[i] > 0 ? " + " : " - ");
    const std::int64_t a =
        (!first && coeffs[i] < 0) ? -coeffs[i] : coeffs[i];
    if (a != 1) out << a << "*";
    out << (i < names.size() ? names[i] : "x" + std::to_string(i));
    first = false;
  }
  if (first) {
    out << constant;
  } else if (constant != 0) {
    out << (constant > 0 ? " + " : " - ")
        << (constant > 0 ? constant : -constant);
  }
  return std::move(out).str();
}

const char* reduction_token(ReductionOp op) noexcept {
  switch (op) {
    case ReductionOp::Add: return "+";
    case ReductionOp::Sub: return "-";
    case ReductionOp::Mul: return "*";
    case ReductionOp::Min: return "min";
    case ReductionOp::Max: return "max";
    case ReductionOp::None:
    case ReductionOp::Call: break;
  }
  return "";
}

std::vector<std::string> Scop::space_names() const {
  std::vector<std::string> names = iterators;
  names.insert(names.end(), parameters.begin(), parameters.end());
  return names;
}

const ConstraintSystem& statement_domain(const Scop& scop,
                                         const ScopStatement& stmt) {
  return stmt.domain.dimensions() > 0 ? stmt.domain : scop.domain;
}

std::vector<std::size_t> statement_loops(const Scop& scop,
                                         const ScopStatement& stmt) {
  if (!stmt.loops.empty() || scop.depth() == 0) return stmt.loops;
  std::vector<std::size_t> chain(scop.depth());
  for (std::size_t i = 0; i < chain.size(); ++i) chain[i] = i;
  return chain;
}

std::vector<const Expr*> guard_conjuncts(const Expr& cond) {
  const auto* b = expr_cast<BinaryExpr>(&cond);
  if (b == nullptr || b->op != BinaryOp::LogicalAnd) return {&cond};
  std::vector<const Expr*> out = guard_conjuncts(*b->lhs);
  const std::vector<const Expr*> rhs = guard_conjuncts(*b->rhs);
  out.insert(out.end(), rhs.begin(), rhs.end());
  return out;
}

namespace {

/// Incremental affine-expression builder over the region's variable space
/// [all loop iterators (pre-order)..., parameters...]. Parameters are
/// discovered on the fly; iterator names resolve against the *active
/// chain* only (set_chain), so sibling loops may reuse a name without the
/// spaces bleeding into each other.
class AffineBuilder {
 public:
  AffineBuilder(const std::vector<std::string>& iterators,
                const std::set<std::string>& written_scalars)
      : iterators_(iterators),
        written_scalars_(written_scalars),
        strides_(iterators.size(), 1),
        origins_(iterators.size()) {}

  /// Selects the loop chain whose iterators are in scope for subsequent
  /// build() calls (indices into the iterator space, outermost first).
  void set_chain(const std::vector<std::size_t>* chain) { chain_ = chain; }

  /// Registers the stride normalization for loop `index`: the source
  /// iterator there sweeps `origin + stride * t_index`, so every later
  /// reference to its name builds as that affine form instead of a unit
  /// coefficient.
  void set_iterator_map(std::size_t index, std::int64_t stride,
                        AffineForm origin) {
    strides_[index] = stride;
    origins_[index] = std::move(origin);
  }

  [[nodiscard]] const std::vector<std::string>& parameters() const {
    return parameters_;
  }

  /// Last failure detail from a nullopt build() (scope violations carry a
  /// more specific story than plain non-affinity).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Converts an AST expression to an affine form; nullopt if non-affine
  /// or if it references an iterator outside the active chain.
  [[nodiscard]] std::optional<AffineForm> build(const Expr& e) {
    error_.clear();
    return build_impl(e);
  }

  /// Grows a form to the current space size (parameters may have been
  /// discovered after it was built).
  void align(AffineForm& f) const { f.coeffs.resize(space_size(), 0); }

  [[nodiscard]] std::size_t space_size() const {
    return iterators_.size() + parameters_.size();
  }

  /// The variable names of the space built so far.
  [[nodiscard]] std::vector<std::string> space_names() const {
    std::vector<std::string> names = iterators_;
    names.insert(names.end(), parameters_.begin(), parameters_.end());
    return names;
  }

  /// The space index of `e` when it names a loop-invariant parameter.
  [[nodiscard]] std::optional<std::size_t> parameter_index(const Expr& e) {
    const auto* ident = expr_cast<IdentExpr>(&e);
    if (ident == nullptr) return std::nullopt;
    error_.clear();
    const std::optional<std::size_t> idx = index_of(ident->name);
    if (!idx || *idx < iterators_.size()) return std::nullopt;
    return idx;
  }

 private:
  [[nodiscard]] std::optional<AffineForm> build_impl(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::IntLiteral: {
        AffineForm f;
        f.coeffs.assign(space_size(), 0);
        f.constant = static_cast<const IntLiteralExpr&>(e).value;
        return f;
      }
      case ExprKind::Ident: {
        const std::string& name = static_cast<const IdentExpr&>(e).name;
        // index_of can grow the space (new parameter), so it must run
        // before the coefficient vector is sized.
        const std::optional<std::size_t> idx = index_of(name);
        if (!idx) return std::nullopt;
        AffineForm f;
        f.coeffs.assign(space_size(), 0);
        if (*idx < iterators_.size() && strides_[*idx] != 1) {
          // Strided iterator: i = origin + stride * t. Origin positions
          // are stable (parameters only ever append to the space).
          const AffineForm& origin = origins_[*idx];
          for (std::size_t i = 0; i < origin.coeffs.size(); ++i) {
            f.coeffs[i] = origin.coeffs[i];
          }
          f.constant = origin.constant;
          f.coeffs[*idx] = checked_add(f.coeffs[*idx], strides_[*idx]);
        } else {
          f.coeffs[*idx] = 1;
        }
        return f;
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        if (u.op == UnaryOp::Minus) {
          auto inner = build_impl(*u.operand);
          if (!inner) return std::nullopt;
          align(*inner);
          for (auto& c : inner->coeffs) c = -c;
          inner->constant = -inner->constant;
          return inner;
        }
        if (u.op == UnaryOp::Plus) return build_impl(*u.operand);
        return std::nullopt;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        if (b.op == BinaryOp::Add || b.op == BinaryOp::Sub) {
          auto lhs = build_impl(*b.lhs);
          auto rhs = build_impl(*b.rhs);
          if (!lhs || !rhs) return std::nullopt;
          align(*lhs);
          align(*rhs);
          for (std::size_t i = 0; i < lhs->coeffs.size(); ++i) {
            lhs->coeffs[i] = (b.op == BinaryOp::Add)
                                 ? checked_add(lhs->coeffs[i], rhs->coeffs[i])
                                 : checked_sub(lhs->coeffs[i],
                                               rhs->coeffs[i]);
          }
          lhs->constant = (b.op == BinaryOp::Add)
                              ? checked_add(lhs->constant, rhs->constant)
                              : checked_sub(lhs->constant, rhs->constant);
          return lhs;
        }
        if (b.op == BinaryOp::Mul) {
          // One side must be a constant.
          auto lhs = build_impl(*b.lhs);
          auto rhs = build_impl(*b.rhs);
          if (!lhs || !rhs) return std::nullopt;
          align(*lhs);
          align(*rhs);
          const bool lhs_const = std::all_of(
              lhs->coeffs.begin(), lhs->coeffs.end(),
              [](std::int64_t c) { return c == 0; });
          const bool rhs_const = std::all_of(
              rhs->coeffs.begin(), rhs->coeffs.end(),
              [](std::int64_t c) { return c == 0; });
          if (!lhs_const && !rhs_const) return std::nullopt;
          const std::int64_t k = lhs_const ? lhs->constant : rhs->constant;
          AffineForm& var = lhs_const ? *rhs : *lhs;
          for (auto& c : var.coeffs) c = checked_mul(c, k);
          var.constant = checked_mul(var.constant, k);
          return var;
        }
        return std::nullopt;
      }
      case ExprKind::Cast:
        return build_impl(*static_cast<const CastExpr&>(e).operand);
      default:
        return std::nullopt;
    }
  }

  [[nodiscard]] std::optional<std::size_t> index_of(
      const std::string& name) {
    if (chain_ != nullptr) {
      for (auto it = chain_->rbegin(); it != chain_->rend(); ++it) {
        if (iterators_[*it] == name) return *it;
      }
    }
    // A name that is some loop's iterator but not in scope here would
    // silently read the loop's final/undefined value as a "parameter" —
    // reject instead.
    if (std::find(iterators_.begin(), iterators_.end(), name) !=
        iterators_.end()) {
      error_ = "iterator '" + name + "' referenced outside its loop";
      return std::nullopt;
    }
    // A scalar assigned inside the region is not loop-invariant: modeling
    // it as a parameter in a bound, guard, or subscript would hide the
    // write→read dependence (a guard can make the write's own carried
    // dependence empty, so nothing else serializes the loop).
    if (written_scalars_.count(name) != 0) {
      error_ = "scalar '" + name +
               "' is written in the region but used in an affine "
               "position (bound, guard, or subscript)";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < parameters_.size(); ++i) {
      if (parameters_[i] == name) return iterators_.size() + i;
    }
    parameters_.push_back(name);
    return iterators_.size() + parameters_.size() - 1;
  }

  const std::vector<std::string>& iterators_;
  const std::set<std::string>& written_scalars_;
  std::vector<std::string> parameters_;
  std::vector<std::int64_t> strides_;
  std::vector<AffineForm> origins_;
  const std::vector<std::size_t>* chain_ = nullptr;
  std::string error_;
};

struct LoopHeader {
  std::string iterator;
  const Expr* lower = nullptr;           // from init
  std::vector<const Expr*> uppers;       // cond conjuncts (min bounds)
  std::vector<bool> uppers_inclusive;    // <= vs < per conjunct
  std::int64_t stride = 1;               // constant positive step
  const Stmt* body = nullptr;
};

/// Matches `for (int i = L; i < U1 && i <= U2 ...; i += K)` shapes (K a
/// positive integer constant; ++/i+=1/i=i+K all accepted; each cond
/// conjunct must test the iterator); returns nullopt with a reason
/// otherwise.
[[nodiscard]] std::optional<LoopHeader> match_loop(const ForStmt& loop,
                                                   std::string& reason) {
  LoopHeader h;
  // init: `int i = L` or `i = L`.
  if (const auto* decl = stmt_cast<DeclStmt>(loop.init.get())) {
    if (decl->decls.size() != 1 || !decl->decls[0].init) {
      reason = "for-init must declare exactly one iterator";
      return std::nullopt;
    }
    h.iterator = decl->decls[0].name;
    h.lower = decl->decls[0].init.get();
  } else if (const auto* es = stmt_cast<ExprStmt>(loop.init.get())) {
    const auto* assign = expr_cast<AssignExpr>(es->expr.get());
    const IdentExpr* ident =
        assign ? expr_cast<IdentExpr>(assign->lhs.get()) : nullptr;
    if (assign == nullptr || assign->op != AssignOp::Assign ||
        ident == nullptr) {
      reason = "for-init must be a simple iterator assignment";
      return std::nullopt;
    }
    h.iterator = ident->name;
    h.lower = assign->rhs.get();
  } else {
    reason = "for-init missing";
    return std::nullopt;
  }

  // cond: conjunction of `i < U` / `i <= U` (min-style compound upper
  // bounds fold into the domain as multiple constraints).
  std::vector<const Expr*> conjuncts;
  std::vector<const Expr*> pending{loop.cond.get()};
  while (!pending.empty()) {
    const Expr* e = pending.back();
    pending.pop_back();
    const auto* land = expr_cast<BinaryExpr>(e);
    if (land != nullptr && land->op == BinaryOp::LogicalAnd) {
      pending.push_back(land->rhs.get());
      pending.push_back(land->lhs.get());
      continue;
    }
    conjuncts.push_back(e);
  }
  for (const Expr* conjunct : conjuncts) {
    const auto* cmp = expr_cast<BinaryExpr>(conjunct);
    if (cmp == nullptr ||
        (cmp->op != BinaryOp::Less && cmp->op != BinaryOp::LessEqual)) {
      reason = "for-condition must be i < U or i <= U";
      return std::nullopt;
    }
    const auto* cond_ident = expr_cast<IdentExpr>(cmp->lhs.get());
    if (cond_ident == nullptr || cond_ident->name != h.iterator) {
      reason = "for-condition must test the loop iterator";
      return std::nullopt;
    }
    h.uppers.push_back(cmp->rhs.get());
    h.uppers_inclusive.push_back(cmp->op == BinaryOp::LessEqual);
  }
  if (h.uppers.empty()) {
    reason = "for-condition must be i < U or i <= U";
    return std::nullopt;
  }

  // inc: `i++`, `++i`, `i += K`, `i = i + K` (shared grammar — see
  // match_induction_step).
  bool inc_ok = false;
  if (loop.inc) {
    if (const auto step = match_induction_step(*loop.inc)) {
      if (step->iterator == h.iterator) {
        h.stride = step->stride;
        inc_ok = true;
      }
    }
  }
  if (!inc_ok) {
    reason =
        "for-increment must advance the iterator by a positive constant";
    return std::nullopt;
  }
  h.body = loop.body.get();
  return h;
}

/// Extracts the access chain of an Index expression: base identifier and
/// subscripts outermost-first. Returns false if the shape is not
/// ident[e1][e2]...[ek].
[[nodiscard]] bool flatten_index_chain(const Expr& e, std::string& base,
                                       std::vector<const Expr*>& subscripts) {
  const Expr* cursor = &e;
  std::vector<const Expr*> rev;
  while (const auto* idx = expr_cast<IndexExpr>(cursor)) {
    rev.push_back(idx->index.get());
    cursor = idx->base.get();
  }
  const auto* ident = expr_cast<IdentExpr>(cursor);
  if (ident == nullptr) return false;
  base = ident->name;
  subscripts.assign(rev.rbegin(), rev.rend());
  return true;
}

/// Outcome of matching one assignment against the associative-reduction
/// grammar `s = s op e` / `s = e op s` (op commutative) / `s op= e` /
/// `s = f(s, e)` with `e` not reading `s`.
struct ReductionMatch {
  ReductionOp op = ReductionOp::None;
  std::string accumulator;
  std::string callee;            // for Min/Max/Call shapes
  const Expr* other = nullptr;   // the non-accumulator operand
  /// True when the RHS is a surviving CallExpr (a pure combiner the
  /// substitution pass deliberately left in place): accesses must then be
  /// collected by hand because the generic walk rejects calls.
  bool call_rhs = false;
};

[[nodiscard]] bool minmax_callee(const std::string& name, ReductionOp& op) {
  if (name == "fmin" || name == "fminf" || name == "fminl") {
    op = ReductionOp::Min;
    return true;
  }
  if (name == "fmax" || name == "fmaxf" || name == "fmaxl") {
    op = ReductionOp::Max;
    return true;
  }
  return false;
}

/// Matches the canonical reduction shapes on a scalar LHS. Subtraction is
/// accepted only in the non-commuted `s = s - e` form (`s = e - s` is not
/// a reduction); min/max recognize the libm call family; any other 2-ary
/// call with the accumulator as exactly one argument is a user-combiner
/// reduction (ReductionOp::Call — reported but never exempted).
[[nodiscard]] std::optional<ReductionMatch> match_reduction(
    const AssignExpr& assign) {
  const auto* lhs = expr_cast<IdentExpr>(assign.lhs.get());
  if (lhs == nullptr) return std::nullopt;
  const std::string& s = lhs->name;
  ReductionMatch m;
  m.accumulator = s;
  if (assign.op == AssignOp::AddAssign ||
      assign.op == AssignOp::SubAssign ||
      assign.op == AssignOp::MulAssign) {
    if (references_identifier(*assign.rhs, s)) return std::nullopt;
    m.op = assign.op == AssignOp::AddAssign   ? ReductionOp::Add
           : assign.op == AssignOp::SubAssign ? ReductionOp::Sub
                                              : ReductionOp::Mul;
    m.other = assign.rhs.get();
    return m;
  }
  if (assign.op != AssignOp::Assign) return std::nullopt;
  if (const auto* b = expr_cast<BinaryExpr>(assign.rhs.get())) {
    const auto* bl = expr_cast<IdentExpr>(b->lhs.get());
    const auto* br = expr_cast<IdentExpr>(b->rhs.get());
    const bool left_is_s = bl != nullptr && bl->name == s;
    const bool right_is_s = br != nullptr && br->name == s;
    if (b->op == BinaryOp::Add || b->op == BinaryOp::Mul) {
      if (left_is_s == right_is_s) return std::nullopt;
      const Expr* other = left_is_s ? b->rhs.get() : b->lhs.get();
      if (references_identifier(*other, s)) return std::nullopt;
      m.op = b->op == BinaryOp::Add ? ReductionOp::Add : ReductionOp::Mul;
      m.other = other;
      return m;
    }
    if (b->op == BinaryOp::Sub) {
      if (!left_is_s || references_identifier(*b->rhs, s)) {
        return std::nullopt;
      }
      m.op = ReductionOp::Sub;
      m.other = b->rhs.get();
      return m;
    }
    return std::nullopt;
  }
  if (const auto* call = expr_cast<CallExpr>(assign.rhs.get())) {
    const std::string name = call->callee_name();
    if (name.empty() || call->args.size() != 2) return std::nullopt;
    const auto* a0 = expr_cast<IdentExpr>(call->args[0].get());
    const auto* a1 = expr_cast<IdentExpr>(call->args[1].get());
    const bool first_is_s = a0 != nullptr && a0->name == s;
    const bool second_is_s = a1 != nullptr && a1->name == s;
    if (first_is_s == second_is_s) return std::nullopt;
    const Expr* other =
        first_is_s ? call->args[1].get() : call->args[0].get();
    if (references_identifier(*other, s)) return std::nullopt;
    // fmin/fmax families are Min/Max; any other 2-ary call is a Call.
    if (!minmax_callee(name, m.op)) m.op = ReductionOp::Call;
    m.callee = name;
    m.other = other;
    m.call_rhs = true;
    return m;
  }
  return std::nullopt;
}

/// One `if` condition on a statement's path, with the branch parity (the
/// else branch sees the negated half-space) and the loop chain in scope
/// *at the guard's position* — a loop nested below the guard must not
/// resolve in its condition (the source reads the variable's value from
/// the enclosing scope there, not the loop iterator).
struct GuardRef {
  const Expr* cond = nullptr;
  bool negated = false;
  std::vector<std::size_t> chain;
};

/// Cap on the number of convex pieces a statement's guard stack may split
/// into. Each piece becomes a full statement copy in the model, so the
/// dependence analysis cost grows quadratically with it; past the cap the
/// scop degrades to serial with a reason instead.
constexpr std::size_t kMaxGuardDisjuncts = 4;

class Extractor {
 public:
  [[nodiscard]] ExtractionResult run(const ForStmt& root) {
    ExtractionResult result = run_impl(root);
    if (!result.ok() && !result.failure_loc.valid()) {
      result.failure_loc = failure_loc_.valid() ? failure_loc_ : root.loc;
    }
    return result;
  }

 private:
  [[nodiscard]] ExtractionResult run_impl(const ForStmt& root) {
    ExtractionResult result;

    // ---- Pass 1: region structure (loop tree, statements, guards) ----
    if (!walk_loop(root, Scop::npos, {}, {}, result.failure_reason)) {
      return result;
    }

    Scop scop;
    scop.root = &root;
    for (const LoopNode& node : loops_) {
      scop.iterators.push_back(node.header.iterator);
      scop.loop_parents.push_back(node.parent);
      scop.loop_asts.push_back(node.ast);
    }

    // Scalars written in the region (they carry dependences; the builder
    // refuses them in affine positions).
    std::set<std::string> written_scalars;
    for (const PendingStmt& p : pending_stmts_) {
      if (const auto* ident = expr_cast<IdentExpr>(p.assign->lhs.get())) {
        written_scalars.insert(ident->name);
      }
    }

    // ---- Pass 2: bounds, guards and accesses over the fixed space ----
    AffineBuilder builder(scop.iterators, written_scalars);
    scop.strides.assign(loops_.size(), 1);
    scop.origins.assign(loops_.size(), AffineForm{});
    // Per-loop bound constraints, reused by every statement under it.
    std::vector<std::vector<Constraint>> loop_bounds(loops_.size());
    bool iterator_dependent_origin = false;
    for (std::size_t j = 0; j < loops_.size(); ++j) {
      const LoopHeader& h = loops_[j].header;
      builder.set_chain(&loops_[j].chain);
      auto lower = builder.build(*h.lower);
      if (!lower) {
        result.failure_reason =
            builder.error().empty()
                ? "non-affine bound for iterator " + h.iterator
                : builder.error();
        result.failure_loc = loops_[j].ast->loc;
        return result;
      }
      std::vector<AffineForm> uppers;
      for (const Expr* u : h.uppers) {
        auto upper = builder.build(*u);
        if (!upper) {
          result.failure_reason =
              builder.error().empty()
                  ? "non-affine bound for iterator " + h.iterator
                  : builder.error();
          result.failure_loc = loops_[j].ast->loc;
          return result;
        }
        uppers.push_back(std::move(*upper));
      }
      builder.align(*lower);
      for (AffineForm& u : uppers) builder.align(u);
      // `for (j = j; ...)`: the incoming value of j is not affine in
      // anything the model can see, and the strided normalization would
      // conflate the origin with the loop's own dimension.
      if (j < lower->coeffs.size() && lower->coeffs[j] != 0) {
        result.failure_reason = "lower bound of iterator " + h.iterator +
                                " references the iterator itself";
        result.failure_loc = loops_[j].ast->loc;
        return result;
      }
      if (h.stride == 1) {
        // i - L >= 0
        Constraint lo = Constraint::ge(IntVec(builder.space_size(), 0), 0);
        lo.coeffs[j] = 1;
        for (std::size_t i = 0; i < lower->coeffs.size(); ++i) {
          lo.coeffs[i] = checked_sub(lo.coeffs[i], lower->coeffs[i]);
        }
        lo.constant = -lower->constant;
        loop_bounds[j].push_back(std::move(lo));
        // U - i - (1 if exclusive) >= 0, once per conjunct.
        for (std::size_t u = 0; u < uppers.size(); ++u) {
          Constraint up =
              Constraint::ge(IntVec(builder.space_size(), 0), 0);
          up.coeffs[j] = -1;
          for (std::size_t i = 0; i < uppers[u].coeffs.size(); ++i) {
            up.coeffs[i] = checked_add(up.coeffs[i], uppers[u].coeffs[i]);
          }
          up.constant =
              uppers[u].constant - (h.uppers_inclusive[u] ? 0 : 1);
          loop_bounds[j].push_back(std::move(up));
        }
        continue;
      }
      // Non-unit stride: normalize to t >= 0 with i = L + stride*t. The
      // loop's domain variable is the trip count, so every bound stays
      // affine; references to i are rewritten by the builder's map. An
      // origin over enclosing iterators (`for (j = i; ...; j += 2)`) is
      // fine for analysis but cannot be folded back by the classic code
      // generator — it forces the region path.
      for (std::size_t i = 0; i < scop.iterators.size(); ++i) {
        if (i < lower->coeffs.size() && lower->coeffs[i] != 0) {
          iterator_dependent_origin = true;
          break;
        }
      }
      builder.set_iterator_map(j, h.stride, *lower);
      scop.strides[j] = h.stride;
      scop.origins[j] = *lower;
      // t >= 0
      Constraint lo = Constraint::ge(IntVec(builder.space_size(), 0), 0);
      lo.coeffs[j] = 1;
      loop_bounds[j].push_back(std::move(lo));
      // U - L - stride*t - (1 if exclusive) >= 0, once per conjunct.
      for (std::size_t u = 0; u < uppers.size(); ++u) {
        Constraint up = Constraint::ge(IntVec(builder.space_size(), 0), 0);
        for (std::size_t i = 0; i < uppers[u].coeffs.size(); ++i) {
          up.coeffs[i] =
              checked_sub(uppers[u].coeffs[i], lower->coeffs[i]);
        }
        up.coeffs[j] = checked_sub(up.coeffs[j], h.stride);
        up.constant = checked_sub(uppers[u].constant, lower->constant) -
                      (h.uppers_inclusive[u] ? 0 : 1);
        loop_bounds[j].push_back(std::move(up));
      }
    }

    // One constraint set per emitted statement (copies of a disjunctively
    // guarded statement each carry one convex piece of the guard).
    std::vector<std::vector<Constraint>> guard_of_stmt;
    for (std::size_t s = 0; s < pending_stmts_.size(); ++s) {
      const PendingStmt& p = pending_stmts_[s];
      builder.set_chain(&p.chain);

      // Writing a loop iterator from the body breaks the affine model
      // outright (and a guard could empty the write's own carried
      // dependence, hiding the breakage from the analysis).
      if (const auto* lhs_ident =
              expr_cast<IdentExpr>(p.assign->lhs.get())) {
        if (std::find(scop.iterators.begin(), scop.iterators.end(),
                      lhs_ident->name) != scop.iterators.end()) {
          result.failure_reason = "loop iterator '" + lhs_ident->name +
                                  "' is written inside the body";
          result.failure_loc = p.ast->loc;
          return result;
        }
      }

      // The guard stack lowers to a DNF: the conjunction of the guards'
      // disjunct sets, combined by cross product. Most statements have a
      // single (possibly empty) conjunct; a disjunctive guard yields one
      // alternative per convex piece.
      std::vector<std::vector<Constraint>> alternatives(1);
      for (const GuardRef& guard : p.guards) {
        // The guard lowers in the scope where it appears: iterators of
        // loops nested below it are not visible to its condition.
        builder.set_chain(&guard.chain);
        std::vector<std::vector<Constraint>> guard_dnf;
        if (!build_guard(*guard.cond, guard.negated, builder, guard_dnf,
                         result.failure_reason)) {
          result.failure_loc = p.ast->loc;
          return result;
        }
        std::vector<std::vector<Constraint>> combined;
        if (!cross_disjuncts(alternatives, guard_dnf, combined,
                             result.failure_reason)) {
          result.failure_loc = p.ast->loc;
          return result;
        }
        alternatives = std::move(combined);
      }
      builder.set_chain(&p.chain);
      const StatementScope scope{&loop_bounds, &p.chain, &alternatives};
      scope_ = &scope;

      ScopStatement stmt;
      stmt.ast = p.ast;
      stmt.position = s;
      stmt.guarded = !p.guards.empty();
      stmt.loops = p.chain;

      const std::optional<ReductionMatch> reduction =
          match_reduction(*p.assign);
      if (reduction) {
        stmt.reduction_op = reduction->op;
        stmt.reduction_accumulator = reduction->accumulator;
        stmt.reduction_callee = reduction->callee;
      }

      if (!add_access(*p.assign->lhs, AccessKind::Write, builder,
                      written_scalars, stmt, result.failure_reason)) {
        result.failure_loc = p.ast->loc;
        return result;
      }
      // Compound assignment reads its target too.
      if (p.assign->op != AssignOp::Assign) {
        if (!add_access(*p.assign->lhs, AccessKind::Read, builder,
                        written_scalars, stmt, result.failure_reason)) {
          result.failure_loc = p.ast->loc;
          return result;
        }
      }
      if (reduction && reduction->call_rhs) {
        // `s = f(s, e)` with a pure combiner the substitution pass left
        // in place: record the accumulator read and walk only the other
        // argument (the generic walk rejects surviving calls).
        Access acc_read;
        acc_read.kind = AccessKind::Read;
        acc_read.array = reduction->accumulator;
        stmt.accesses.push_back(std::move(acc_read));
        if (!collect_reads(*reduction->other, builder, written_scalars,
                           stmt, result.failure_reason)) {
          result.failure_loc = p.ast->loc;
          return result;
        }
      } else if (!collect_reads(*p.assign->rhs, builder, written_scalars,
                                stmt, result.failure_reason)) {
        result.failure_loc = p.ast->loc;
        return result;
      }
      // One model statement per guard disjunct. Copies share the source
      // statement's ast and textual position: the dependence analyzer's
      // same-position ordering covers them, and downstream passes that
      // regenerate code key on the ast, so no statement executes twice.
      for (std::size_t a = 0; a < alternatives.size(); ++a) {
        scop.statements.push_back(stmt);
        guard_of_stmt.push_back(std::move(alternatives[a]));
      }
    }

    // A recognized reduction is only exemptible while the accumulator
    // stays private to its update: any other statement touching it makes
    // the intermediate values observable, so demote (the self-dependence
    // then serializes the nest as before, with the reason recorded).
    for (std::size_t s = 0; s < scop.statements.size(); ++s) {
      ScopStatement& stmt = scop.statements[s];
      if (stmt.reduction_op == ReductionOp::None) continue;
      // Disjunct copies of one source statement are not "other"
      // statements — they execute the same update, so seeing the
      // accumulator there does not make it observable.
      bool escapes = false;
      for (std::size_t t = 0; t < scop.statements.size() && !escapes;
           ++t) {
        if (scop.statements[t].ast == stmt.ast) continue;
        for (const Access& a : scop.statements[t].accesses) {
          if (a.array == stmt.reduction_accumulator) {
            escapes = true;
            break;
          }
        }
      }
      // Copies are adjacent; note once per source statement.
      const bool first_copy =
          s == 0 || scop.statements[s - 1].ast != stmt.ast;
      if (escapes) {
        if (first_copy) {
          scop.reduction_notes.push_back(
              "reduction on '" + stmt.reduction_accumulator +
              "' demoted: accumulator is read elsewhere in the nest");
        }
        stmt.reduction_op = ReductionOp::None;
        stmt.reduction_accumulator.clear();
        stmt.reduction_callee.clear();
      } else if (stmt.reduction_op == ReductionOp::Call && first_copy) {
        scop.reduction_notes.push_back(
            "reduction on '" + stmt.reduction_accumulator +
            "' uses combiner '" + stmt.reduction_callee +
            "' (no OpenMP reduction clause for user functions)");
      }
    }

    // The guards in the model's terms, conjunct by conjunct, for code
    // generation. Each was lowered above for the statements it guards, so
    // this adds no parameter; a guard over no statement is left out.
    for (const GuardSite& site : guard_sites_) {
      if (!site.guards_stmts) continue;
      builder.set_chain(&site.chain);
      ScopGuard guard;
      guard.ast = site.ast;
      std::string ignored;
      const auto convex = [&](const Expr& cond, bool negated)
          -> std::optional<std::vector<Constraint>> {
        std::vector<std::vector<Constraint>> dnf;
        if (!build_guard(cond, negated, builder, dnf, ignored) ||
            dnf.size() != 1) {
          return std::nullopt;
        }
        return std::move(dnf.front());
      };
      for (const Expr* conjunct : guard_conjuncts(*site.ast->cond)) {
        guard.conjuncts.push_back(convex(*conjunct, false));
      }
      guard.negation = convex(*site.ast->cond, true);
      scop.guards.push_back(std::move(guard));
    }

    // ---- Finalize: pad every form/constraint to the full space --------
    scop.parameters = builder.parameters();
    const std::size_t space = builder.space_size();
    const auto aligned = [space](Constraint c) {
      c.coeffs.resize(space, 0);
      return c;
    };
    scop.domain = ConstraintSystem(space);
    for (const std::vector<Constraint>& bounds : loop_bounds) {
      for (const Constraint& c : bounds) scop.domain.add(aligned(c));
    }
    for (std::size_t s = 0; s < scop.statements.size(); ++s) {
      ScopStatement& stmt = scop.statements[s];
      ConstraintSystem domain(space);
      for (std::size_t loop_index : stmt.loops) {
        for (const Constraint& c : loop_bounds[loop_index]) {
          domain.add(aligned(c));
        }
      }
      for (const Constraint& c : guard_of_stmt[s]) domain.add(aligned(c));
      stmt.domain = std::move(domain);
      for (Access& a : stmt.accesses) {
        for (AffineForm& f : a.subscripts) f.coeffs.resize(space, 0);
      }
    }
    for (AffineForm& origin : scop.origins) origin.coeffs.resize(space, 0);
    for (ScopGuard& guard : scop.guards) {
      for (auto& conjunct : guard.conjuncts) {
        if (!conjunct) continue;
        for (Constraint& c : *conjunct) c = aligned(std::move(c));
      }
      if (guard.negation) {
        for (Constraint& c : *guard.negation) c = aligned(std::move(c));
      }
    }

    // A base is modeled two-dimensional only when every access to it
    // split by the same parameter. The dependence test pairs subscript
    // lists of equal length only, so a half-split base would lose the
    // dependences between its split and flat accesses: keep it flat
    // instead, which leaves its product subscripts non-affine.
    for (const ScopStatement& stmt : scop.statements) {
      for (const Access& a : stmt.accesses) {
        if (a.delinearized_by.empty() ||
            std::find(scop.delinearized.begin(), scop.delinearized.end(),
                      a.array) != scop.delinearized.end()) {
          continue;
        }
        for (const ScopStatement& other : scop.statements) {
          for (const Access& b : other.accesses) {
            if (b.array != a.array || b.delinearized_by == a.delinearized_by) {
              continue;
            }
            result.failure_reason =
                "non-affine subscript on array " + a.array +
                ": another access to " + a.array + " does not split as e * " +
                a.delinearized_by + " + e'";
            result.failure_loc = stmt.ast->loc;
            return result;
          }
        }
        scop.delinearized.push_back(a.array);
      }
    }

    // Inclusive prefix-scan shape `a[i] = a[i - c] + e` (1-D, constant
    // positive distance c): not parallelizable as-is, but the verdict
    // should say "scan", not "carried dependence". Runs after the pad so
    // subscript forms compare over the full space.
    for (std::size_t s = 0; s < scop.statements.size(); ++s) {
      const ScopStatement& stmt = scop.statements[s];
      // Skip disjunct copies: same source statement, same scan shape.
      if (s > 0 && scop.statements[s - 1].ast == stmt.ast) continue;
      const Access* write = nullptr;
      for (const Access& a : stmt.accesses) {
        if (a.kind == AccessKind::Write && a.subscripts.size() == 1) {
          write = &a;
        }
      }
      if (write == nullptr) continue;
      for (const Access& a : stmt.accesses) {
        if (a.kind != AccessKind::Read || a.array != write->array ||
            a.subscripts.size() != 1) {
          continue;
        }
        if (a.subscripts[0].coeffs != write->subscripts[0].coeffs) {
          continue;
        }
        const std::int64_t dist =
            write->subscripts[0].constant - a.subscripts[0].constant;
        if (dist > 0) {
          scop.reduction_notes.push_back(
              "scan: '" + write->array + "[i] = " + write->array +
              "[i - " + std::to_string(dist) +
              "] + ...' is an inclusive prefix scan (not parallelized)");
        }
      }
    }

    scop.region_shaped =
        saw_guard_ || iterator_dependent_origin || !is_single_chain(scop);
    result.scop = std::move(scop);
    return result;
  }

 private:
  struct LoopNode {
    LoopHeader header;
    std::size_t parent = Scop::npos;
    const ForStmt* ast = nullptr;
    std::vector<std::size_t> chain;  // ancestors + self
  };

  struct PendingStmt {
    const Stmt* ast = nullptr;
    const AssignExpr* assign = nullptr;
    std::vector<std::size_t> chain;
    std::vector<GuardRef> guards;
  };

  /// True when the loop tree is one perfectly nested chain with every
  /// statement at the innermost level — the classic band the full
  /// reschedule/tile pipeline handles.
  [[nodiscard]] bool is_single_chain(const Scop& scop) const {
    for (std::size_t j = 0; j < scop.loop_parents.size(); ++j) {
      const std::size_t expected = (j == 0) ? Scop::npos : j - 1;
      if (scop.loop_parents[j] != expected) return false;
    }
    for (const ScopStatement& stmt : scop.statements) {
      if (stmt.loops.size() != scop.depth()) return false;
    }
    return true;
  }

  [[nodiscard]] bool walk_loop(const ForStmt& loop, std::size_t parent,
                               std::vector<std::size_t> chain,
                               const std::vector<GuardRef>& guards,
                               std::string& failure) {
    std::string reason;
    auto header = match_loop(loop, reason);
    if (!header) {
      failure = reason;
      failure_loc_ = loop.loc;
      return false;
    }
    const std::size_t index = loops_.size();
    if (chain.size() + 1 > 4) {
      failure = "loop nest deeper than 4";
      failure_loc_ = loop.loc;
      return false;
    }
    if (index + 1 > 8) {
      failure = "more than 8 loops in one region";
      failure_loc_ = loop.loc;
      return false;
    }
    chain.push_back(index);
    LoopNode node;
    node.header = *header;
    node.parent = parent;
    node.ast = &loop;
    node.chain = chain;
    loops_.push_back(std::move(node));
    return walk_body(header->body, index, chain, guards, failure);
  }

  [[nodiscard]] bool walk_body(const Stmt* body, std::size_t loop_index,
                               const std::vector<std::size_t>& chain,
                               const std::vector<GuardRef>& guards,
                               std::string& failure) {
    if (body == nullptr) {
      failure = "loop has no body";
      return false;
    }
    if (const auto* block = stmt_cast<CompoundStmt>(body)) {
      for (const StmtPtr& child : block->stmts) {
        if (!walk_element(*child, loop_index, chain, guards, failure)) {
          return false;
        }
      }
      return true;
    }
    return walk_element(*body, loop_index, chain, guards, failure);
  }

  [[nodiscard]] bool walk_element(const Stmt& s, std::size_t loop_index,
                                  const std::vector<std::size_t>& chain,
                                  const std::vector<GuardRef>& guards,
                                  std::string& failure) {
    switch (s.kind()) {
      case StmtKind::Null:
      case StmtKind::Pragma:
        return true;
      case StmtKind::Compound:
        return walk_body(&s, loop_index, chain, guards, failure);
      case StmtKind::For:
        return walk_loop(static_cast<const ForStmt&>(s), loop_index, chain,
                         guards, failure);
      case StmtKind::If: {
        saw_guard_ = true;
        const auto& branch = static_cast<const IfStmt&>(s);
        const std::size_t site = guard_sites_.size();
        const std::size_t first_stmt = pending_stmts_.size();
        guard_sites_.push_back(GuardSite{&branch, chain, false});
        std::vector<GuardRef> then_guards = guards;
        then_guards.push_back(GuardRef{branch.cond.get(), false, chain});
        if (!walk_body(branch.then_stmt.get(), loop_index, chain,
                       then_guards, failure)) {
          return false;
        }
        if (branch.else_stmt) {
          std::vector<GuardRef> else_guards = guards;
          else_guards.push_back(GuardRef{branch.cond.get(), true, chain});
          if (!walk_body(branch.else_stmt.get(), loop_index, chain,
                         else_guards, failure)) {
            return false;
          }
        }
        guard_sites_[site].guards_stmts =
            pending_stmts_.size() > first_stmt;
        return true;
      }
      case StmtKind::Expr: {
        const auto& es = static_cast<const ExprStmt&>(s);
        const auto* assign = expr_cast<AssignExpr>(es.expr.get());
        if (assign == nullptr) {
          failure = "loop body statement is not a plain assignment";
          failure_loc_ = s.loc;
          return false;
        }
        PendingStmt p;
        p.ast = &s;
        p.assign = assign;
        p.chain = chain;
        p.guards = guards;
        pending_stmts_.push_back(std::move(p));
        return true;
      }
      case StmtKind::While:
      case StmtKind::DoWhile:
        failure =
            "while loop in body has no recognizable affine induction "
            "(not canonicalized)";
        failure_loc_ = s.loc;
        return false;
      case StmtKind::Decl:
        failure = "declaration inside the loop body";
        failure_loc_ = s.loc;
        return false;
      default:
        failure = "loop body statement is not a plain assignment";
        failure_loc_ = s.loc;
        return false;
    }
  }

  /// Lowers an `if` condition (or its negation, for the else branch) to
  /// disjunctive normal form: a union of conjunctive affine constraint
  /// sets. Convex guards lower to a single disjunct exactly as before;
  /// disjunctive shapes (`||`, a negated `&&`, a then-side `!=`) split
  /// into one disjunct per convex piece so the statement can be modeled
  /// as one copy per piece instead of rejecting the whole scop. The
  /// split is capped — a combinatorial guard still degrades to serial
  /// with a reason, never to wrong code.
  [[nodiscard]] bool build_guard(const Expr& e, bool negated,
                                 AffineBuilder& builder,
                                 std::vector<std::vector<Constraint>>& dnf,
                                 std::string& failure) {
    if (const auto* u = expr_cast<UnaryExpr>(&e)) {
      if (u->op == UnaryOp::Not) {
        return build_guard(*u->operand, !negated, builder, dnf, failure);
      }
    }
    const auto* b = expr_cast<BinaryExpr>(&e);
    if (b == nullptr) {
      failure = "guard condition is not an affine comparison";
      return false;
    }
    const bool conjunctive = (b->op == BinaryOp::LogicalAnd && !negated) ||
                             (b->op == BinaryOp::LogicalOr && negated);
    const bool disjunctive = (b->op == BinaryOp::LogicalOr && !negated) ||
                             (b->op == BinaryOp::LogicalAnd && negated);
    if (conjunctive) {
      std::vector<std::vector<Constraint>> lhs;
      std::vector<std::vector<Constraint>> rhs;
      return build_guard(*b->lhs, negated, builder, lhs, failure) &&
             build_guard(*b->rhs, negated, builder, rhs, failure) &&
             cross_disjuncts(lhs, rhs, dnf, failure);
    }
    if (disjunctive) {
      std::vector<std::vector<Constraint>> lhs;
      std::vector<std::vector<Constraint>> rhs;
      if (!build_guard(*b->lhs, negated, builder, lhs, failure) ||
          !build_guard(*b->rhs, negated, builder, rhs, failure)) {
        return false;
      }
      dnf = std::move(lhs);
      dnf.insert(dnf.end(), std::make_move_iterator(rhs.begin()),
                 std::make_move_iterator(rhs.end()));
      return check_disjunct_cap(dnf.size(), failure);
    }

    const bool comparison =
        b->op == BinaryOp::Less || b->op == BinaryOp::LessEqual ||
        b->op == BinaryOp::Greater || b->op == BinaryOp::GreaterEqual ||
        b->op == BinaryOp::Equal || b->op == BinaryOp::NotEqual;
    if (!comparison) {
      failure = "guard condition is not an affine comparison";
      return false;
    }
    auto lhs = builder.build(*b->lhs);
    if (!lhs) {
      failure = builder.error().empty()
                    ? "non-affine guard condition"
                    : builder.error();
      return false;
    }
    auto rhs = builder.build(*b->rhs);
    if (!rhs) {
      failure = builder.error().empty()
                    ? "non-affine guard condition"
                    : builder.error();
      return false;
    }
    builder.align(*lhs);
    builder.align(*rhs);
    // diff = lhs - rhs.
    AffineForm diff = std::move(*lhs);
    for (std::size_t i = 0; i < diff.coeffs.size(); ++i) {
      diff.coeffs[i] = checked_sub(diff.coeffs[i], rhs->coeffs[i]);
    }
    diff.constant = checked_sub(diff.constant, rhs->constant);

    BinaryOp op = b->op;
    if (negated) {
      switch (op) {
        case BinaryOp::Less: op = BinaryOp::GreaterEqual; break;
        case BinaryOp::LessEqual: op = BinaryOp::Greater; break;
        case BinaryOp::Greater: op = BinaryOp::LessEqual; break;
        case BinaryOp::GreaterEqual: op = BinaryOp::Less; break;
        case BinaryOp::Equal: op = BinaryOp::NotEqual; break;
        case BinaryOp::NotEqual: op = BinaryOp::Equal; break;
        default: break;
      }
    }
    const auto negated_form = [&diff] {
      AffineForm f = diff;
      for (auto& c : f.coeffs) c = -c;
      f.constant = -f.constant;
      return f;
    };
    switch (op) {
      case BinaryOp::Less: {
        // lhs < rhs  <=>  rhs - lhs - 1 >= 0.
        AffineForm f = negated_form();
        dnf.push_back(
            {Constraint::ge(std::move(f.coeffs), f.constant - 1)});
        return true;
      }
      case BinaryOp::LessEqual: {
        AffineForm f = negated_form();
        dnf.push_back({Constraint::ge(std::move(f.coeffs), f.constant)});
        return true;
      }
      case BinaryOp::Greater:
        dnf.push_back(
            {Constraint::ge(std::move(diff.coeffs), diff.constant - 1)});
        return true;
      case BinaryOp::GreaterEqual:
        dnf.push_back(
            {Constraint::ge(std::move(diff.coeffs), diff.constant)});
        return true;
      case BinaryOp::Equal:
        dnf.push_back(
            {Constraint::eq(std::move(diff.coeffs), diff.constant)});
        return true;
      case BinaryOp::NotEqual: {
        // lhs != rhs  <=>  lhs < rhs  OR  lhs > rhs.
        AffineForm f = negated_form();
        dnf.push_back(
            {Constraint::ge(std::move(f.coeffs), f.constant - 1)});
        dnf.push_back(
            {Constraint::ge(std::move(diff.coeffs), diff.constant - 1)});
        return true;
      }
      default:
        return false;
    }
  }

  /// Conjunction of two DNFs: the cross product of their disjuncts,
  /// subject to the split cap.
  [[nodiscard]] static bool cross_disjuncts(
      const std::vector<std::vector<Constraint>>& lhs,
      const std::vector<std::vector<Constraint>>& rhs,
      std::vector<std::vector<Constraint>>& dnf, std::string& failure) {
    if (!check_disjunct_cap(dnf.size() + lhs.size() * rhs.size(),
                            failure)) {
      return false;
    }
    for (const std::vector<Constraint>& l : lhs) {
      for (const std::vector<Constraint>& r : rhs) {
        std::vector<Constraint> merged = l;
        merged.insert(merged.end(), r.begin(), r.end());
        dnf.push_back(std::move(merged));
      }
    }
    return true;
  }

  [[nodiscard]] static bool check_disjunct_cap(std::size_t count,
                                               std::string& failure) {
    if (count <= kMaxGuardDisjuncts) return true;
    failure = "guard splits into more than " +
              std::to_string(kMaxGuardDisjuncts) +
              " affine disjuncts";
    return false;
  }

  bool add_access(const Expr& e, AccessKind kind, AffineBuilder& builder,
                  const std::set<std::string>& written_scalars,
                  ScopStatement& stmt, std::string& failure) {
    if (const auto* ident = expr_cast<IdentExpr>(&e)) {
      // Scalar access. Only track it if it is written in the region —
      // read-only scalars are parameters/constants.
      if (kind == AccessKind::Write ||
          written_scalars.count(ident->name) != 0) {
        Access a;
        a.kind = kind;
        a.array = ident->name;
        stmt.accesses.push_back(std::move(a));
      }
      return true;
    }
    std::string base;
    std::vector<const Expr*> subscripts;
    if (!flatten_index_chain(e, base, subscripts)) {
      failure = "unsupported access shape (expected ident[aff]...[aff])";
      return false;
    }
    Access a;
    a.kind = kind;
    a.array = base;
    for (const Expr* sub : subscripts) {
      auto form = builder.build(*sub);
      if (form) {
        a.subscripts.push_back(std::move(*form));
        continue;
      }
      if (!builder.error().empty()) {
        failure = builder.error();
        return false;
      }
      failure = "non-affine subscript on array " + base;
      if (subscripts.size() != 1) return false;
      std::optional<ProductSplit> split = split_product(*sub, builder);
      if (!split) return false;
      const std::string unproven = unproven_row_bound(*split, builder);
      if (!unproven.empty()) {
        failure += ": cannot prove " + unproven;
        return false;
      }
      a.subscripts.push_back(std::move(split->outer));
      a.subscripts.push_back(std::move(split->inner));
      a.delinearized_by = builder.space_names()[split->param];
    }
    stmt.accesses.push_back(std::move(a));
    return true;
  }

  /// A flat subscript `e1 * P + e2` split into its row `e1` and its
  /// column `e2`, with P's index in the space.
  struct ProductSplit {
    AffineForm outer;
    AffineForm inner;
    std::size_t param = 0;
  };

  /// Splits a subscript the builder rejected into `e1 * P + e2` (or
  /// `P * e1 + e2`, the terms of the sum in any order): exactly one term
  /// is a product, it is added, one factor is a parameter and the other
  /// is affine, and the remaining terms are affine.
  [[nodiscard]] static std::optional<ProductSplit> split_product(
      const Expr& sub, AffineBuilder& builder) {
    std::vector<std::pair<const Expr*, bool>> terms;  // (term, negated)
    std::vector<std::pair<const Expr*, bool>> pending{{&sub, false}};
    while (!pending.empty()) {
      const auto [e, negated] = pending.back();
      pending.pop_back();
      const auto* b = expr_cast<BinaryExpr>(e);
      if (b != nullptr &&
          (b->op == BinaryOp::Add || b->op == BinaryOp::Sub)) {
        pending.emplace_back(b->rhs.get(),
                             b->op == BinaryOp::Sub ? !negated : negated);
        pending.emplace_back(b->lhs.get(), negated);
        continue;
      }
      terms.emplace_back(e, negated);
    }
    std::optional<ProductSplit> split;
    AffineForm inner;
    for (const auto& [term, negated] : terms) {
      if (auto form = builder.build(*term)) {
        builder.align(*form);
        builder.align(inner);
        const std::int64_t sign = negated ? -1 : 1;
        for (std::size_t i = 0; i < inner.coeffs.size(); ++i) {
          inner.coeffs[i] =
              checked_add(inner.coeffs[i], checked_mul(sign, form->coeffs[i]));
        }
        inner.constant =
            checked_add(inner.constant, checked_mul(sign, form->constant));
        continue;
      }
      const auto* mul = expr_cast<BinaryExpr>(term);
      if (!builder.error().empty() || negated || split || mul == nullptr ||
          mul->op != BinaryOp::Mul) {
        return std::nullopt;
      }
      for (const auto& [factor, other] :
           {std::pair{mul->rhs.get(), mul->lhs.get()},
            std::pair{mul->lhs.get(), mul->rhs.get()}}) {
        const std::optional<std::size_t> param =
            builder.parameter_index(*factor);
        if (!param) continue;
        std::optional<AffineForm> outer = builder.build(*other);
        if (!outer) return std::nullopt;
        split = ProductSplit{std::move(*outer), AffineForm{}, *param};
        break;
      }
      if (!split) return std::nullopt;
    }
    if (!split) return std::nullopt;
    builder.align(split->outer);
    builder.align(inner);
    split->inner = std::move(inner);
    return split;
  }

  /// Checks the split against every convex piece of the current
  /// statement's domain: both `e2 <= -1` and `e2 >= P` must be
  /// infeasible. Returns the unproven bound as text, empty when proven.
  [[nodiscard]] std::string unproven_row_bound(
      const ProductSplit& split, const AffineBuilder& builder) const {
    const std::size_t space = builder.space_size();
    const auto aligned = [space](Constraint c) {
      c.coeffs.resize(space, 0);
      return c;
    };
    Constraint below = Constraint::ge(split.inner.coeffs, 0);
    for (std::int64_t& c : below.coeffs) c = -c;
    below.constant = checked_sub(-1, split.inner.constant);
    Constraint beyond = Constraint::ge(split.inner.coeffs,
                                       split.inner.constant);
    beyond.coeffs[split.param] = checked_sub(beyond.coeffs[split.param], 1);
    for (const std::vector<Constraint>& guard : *scope_->alternatives) {
      ConstraintSystem domain(space);
      for (std::size_t loop_index : *scope_->chain) {
        for (const Constraint& c : (*scope_->loop_bounds)[loop_index]) {
          domain.add(aligned(c));
        }
      }
      for (const Constraint& c : guard) domain.add(aligned(c));
      if (domain.satisfiable_with(below) || domain.satisfiable_with(beyond)) {
        const std::vector<std::string> names = builder.space_names();
        return "0 <= " + split.inner.to_string(names) + " < " +
               names[split.param];
      }
    }
    return {};
  }

  bool collect_reads(const Expr& e, AffineBuilder& builder,
                     const std::set<std::string>& written_scalars,
                     ScopStatement& stmt, std::string& failure) {
    switch (e.kind()) {
      case ExprKind::Index:
        return add_access(e, AccessKind::Read, builder, written_scalars,
                          stmt, failure);
      case ExprKind::Ident:
        return add_access(e, AccessKind::Read, builder, written_scalars,
                          stmt, failure);
      case ExprKind::IntLiteral:
      case ExprKind::FloatLiteral:
      case ExprKind::CharLiteral:
      case ExprKind::StringLiteral:
        return true;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        if (u.op == UnaryOp::Deref || u.op == UnaryOp::AddrOf ||
            u.op == UnaryOp::PreInc || u.op == UnaryOp::PostInc ||
            u.op == UnaryOp::PreDec || u.op == UnaryOp::PostDec) {
          failure = "unsupported operator in loop body";
          return false;
        }
        return collect_reads(*u.operand, builder, written_scalars, stmt,
                             failure);
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        return collect_reads(*b.lhs, builder, written_scalars, stmt,
                             failure) &&
               collect_reads(*b.rhs, builder, written_scalars, stmt,
                             failure);
      }
      case ExprKind::Conditional: {
        const auto& c = static_cast<const ConditionalExpr&>(e);
        return collect_reads(*c.cond, builder, written_scalars, stmt,
                             failure) &&
               collect_reads(*c.then_expr, builder, written_scalars, stmt,
                             failure) &&
               collect_reads(*c.else_expr, builder, written_scalars, stmt,
                             failure);
      }
      case ExprKind::Cast:
        return collect_reads(*static_cast<const CastExpr&>(e).operand,
                             builder, written_scalars, stmt, failure);
      case ExprKind::Sizeof:
        return true;
      case ExprKind::Call:
        failure = "function call left in loop body (not substituted)";
        return false;
      case ExprKind::Assign:
        failure = "nested assignment in loop body expression";
        return false;
      case ExprKind::Member:
        failure = "struct member access in loop body";
        return false;
    }
    return true;
  }

  /// What a subscript bound proof may assume: the constraints of the
  /// statement being collected (its loops' bounds plus one guard piece
  /// per alternative).
  struct StatementScope {
    const std::vector<std::vector<Constraint>>* loop_bounds = nullptr;
    const std::vector<std::size_t>* chain = nullptr;
    const std::vector<std::vector<Constraint>>* alternatives = nullptr;
  };

  /// One `if` met by the walk, in pre-order, with the loop chain in
  /// scope at it; `guards_stmts` once a statement was found beneath it.
  struct GuardSite {
    const IfStmt* ast = nullptr;
    std::vector<std::size_t> chain;
    bool guards_stmts = false;
  };

  std::vector<LoopNode> loops_;
  std::vector<PendingStmt> pending_stmts_;
  std::vector<GuardSite> guard_sites_;
  const StatementScope* scope_ = nullptr;
  bool saw_guard_ = false;
  /// Set by the walk passes when a rejection can point at the offending
  /// statement/loop; run() falls back to the root loop otherwise.
  SourceLocation failure_loc_;
};

}  // namespace

ExtractionResult extract_scop(const ForStmt& loop) {
  Extractor extractor;
  return extractor.run(loop);
}

}  // namespace purec::poly
