#include "polyhedral/constraint.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "support/rational.h"

namespace purec::poly {

std::string Constraint::to_string(
    const std::vector<std::string>& var_names) const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0) continue;
    const std::string name =
        i < var_names.size() ? var_names[i] : 'x' + std::to_string(i);
    if (first) {
      if (coeffs[i] == -1) {
        out << "-";
      } else if (coeffs[i] != 1) {
        out << coeffs[i] << "*";
      }
      first = false;
    } else {
      out << (coeffs[i] > 0 ? " + " : " - ");
      const std::int64_t a = coeffs[i] > 0 ? coeffs[i] : -coeffs[i];
      if (a != 1) out << a << "*";
    }
    out << name;
  }
  if (first) {
    out << constant;
  } else if (constant != 0) {
    out << (constant > 0 ? " + " : " - ")
        << (constant > 0 ? constant : -constant);
  }
  out << (kind == ConstraintKind::Equality ? " == 0" : " >= 0");
  return std::move(out).str();
}

void ConstraintSystem::add(Constraint c) {
  if (c.coeffs.size() != dimensions_) {
    throw std::invalid_argument("constraint dimension mismatch");
  }
  constraints_.push_back(std::move(c));
}

void ConstraintSystem::add_equality(IntVec coeffs, std::int64_t constant) {
  add(Constraint::eq(std::move(coeffs), constant));
}

void ConstraintSystem::add_inequality(IntVec coeffs, std::int64_t constant) {
  add(Constraint::ge(std::move(coeffs), constant));
}

void ConstraintSystem::extend_dimensions(std::size_t extra) {
  dimensions_ += extra;
  for (Constraint& c : constraints_) c.coeffs.resize(dimensions_, 0);
}

namespace {

/// Normalizes a constraint: divide by the gcd of coefficients (and for
/// inequalities, floor the constant — sound for integer solutions).
void normalize(Constraint& c) {
  std::int64_t g = vector_gcd(c.coeffs);
  if (g == 0) return;
  if (g > 1) {
    for (std::int64_t& x : c.coeffs) x /= g;
    if (c.kind == ConstraintKind::Inequality) {
      c.constant = floor_div(c.constant, g);
    } else {
      if (c.constant % g != 0) {
        // Equality with no integer solutions: keep as-is; the emptiness
        // check's GCD test will catch it.
        return;
      }
      c.constant /= g;
    }
  }
}

/// True when the constraint mentions no variables.
[[nodiscard]] bool is_constant(const Constraint& c) {
  return std::all_of(c.coeffs.begin(), c.coeffs.end(),
                     [](std::int64_t x) { return x == 0; });
}

/// Constant constraint truth value.
[[nodiscard]] bool constant_holds(const Constraint& c) {
  if (c.kind == ConstraintKind::Equality) return c.constant == 0;
  return c.constant >= 0;
}

/// Uses equality `eq` to substitute away variable `var` in `target`.
/// Returns the combined constraint scaled to stay integral.
[[nodiscard]] Constraint substitute(const Constraint& eq,
                                    const Constraint& target,
                                    std::size_t var) {
  const std::int64_t a = eq.coeffs[var];
  const std::int64_t b = target.coeffs[var];
  // combined = a_sign * (|a| * target - b * sign(a) * eq) has zero coeff at
  // var. To preserve inequality direction multiply target by |a| (>0).
  const std::int64_t abs_a = a < 0 ? -a : a;
  const std::int64_t factor = (a < 0) ? -b : b;
  Constraint out;
  out.kind = target.kind;
  out.coeffs.resize(target.coeffs.size());
  for (std::size_t i = 0; i < target.coeffs.size(); ++i) {
    out.coeffs[i] = checked_sub(checked_mul(abs_a, target.coeffs[i]),
                                checked_mul(factor, eq.coeffs[i]));
  }
  out.constant = checked_sub(checked_mul(abs_a, target.constant),
                             checked_mul(factor, eq.constant));
  normalize(out);
  return out;
}

struct ConstraintLess {
  bool operator()(const Constraint& a, const Constraint& b) const {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.constant != b.constant) return a.constant < b.constant;
    return a.coeffs < b.coeffs;
  }
};

}  // namespace

ConstraintSystem ConstraintSystem::eliminate(std::size_t var) const {
  ConstraintSystem out(dimensions_);
  std::vector<Constraint> lowers;   // positive coeff on var
  std::vector<Constraint> uppers;   // negative coeff on var
  std::vector<Constraint> keep;

  // First: if an equality involves var, use it to substitute everywhere.
  const Constraint* pivot = nullptr;
  for (const Constraint& c : constraints_) {
    if (c.kind == ConstraintKind::Equality && c.coeffs[var] != 0) {
      pivot = &c;
      break;
    }
  }
  if (pivot != nullptr) {
    for (const Constraint& c : constraints_) {
      if (&c == pivot) continue;
      if (c.coeffs[var] == 0) {
        out.add(c);
      } else {
        out.add(substitute(*pivot, c, var));
      }
    }
    return out;
  }

  for (const Constraint& c : constraints_) {
    if (c.coeffs[var] == 0) {
      keep.push_back(c);
    } else if (c.coeffs[var] > 0) {
      lowers.push_back(c);
    } else {
      uppers.push_back(c);
    }
  }
  std::set<Constraint, ConstraintLess> dedup;
  for (Constraint& c : keep) {
    if (dedup.insert(c).second) out.add(std::move(c));
  }
  for (const Constraint& lo : lowers) {
    for (const Constraint& up : uppers) {
      const std::int64_t a = lo.coeffs[var];        // > 0
      const std::int64_t b = -up.coeffs[var];       // > 0
      Constraint combined;
      combined.kind = ConstraintKind::Inequality;
      combined.coeffs.resize(dimensions_);
      for (std::size_t i = 0; i < dimensions_; ++i) {
        combined.coeffs[i] = checked_add(checked_mul(b, lo.coeffs[i]),
                                         checked_mul(a, up.coeffs[i]));
      }
      combined.constant = checked_add(checked_mul(b, lo.constant),
                                      checked_mul(a, up.constant));
      normalize(combined);
      if (dedup.insert(combined).second) out.add(std::move(combined));
    }
  }
  return out;
}

bool ConstraintSystem::is_empty() const {
  ConstraintSystem sys = *this;
  // GCD integrality test on equalities: if gcd(coeffs) does not divide the
  // constant, there is no integer solution at all.
  for (const Constraint& c : sys.constraints_) {
    if (c.kind != ConstraintKind::Equality) continue;
    const std::int64_t g = vector_gcd(c.coeffs);
    if (g == 0) {
      if (c.constant != 0) return true;
    } else if (c.constant % g != 0) {
      return true;
    }
  }
  for (std::size_t var = 0; var < sys.dimensions_; ++var) {
    sys = sys.eliminate(var);
    for (const Constraint& c : sys.constraints_) {
      if (is_constant(c) && !constant_holds(c)) return true;
    }
  }
  for (const Constraint& c : sys.constraints_) {
    if (is_constant(c) && !constant_holds(c)) return true;
  }
  return false;
}

bool ConstraintSystem::satisfiable_with(const Constraint& extra) const {
  ConstraintSystem sys = *this;
  sys.add(extra);
  return !sys.is_empty();
}

std::optional<std::int64_t> ConstraintSystem::forced_value(
    const IntVec& coeffs, std::int64_t constant) const {
  // The expression e = coeffs.x + constant has forced value v iff
  // (e >= v+1) is unsat and (e <= v-1) is unsat and (e == v) is sat.
  // Find a candidate v by testing satisfiability of e == v over a small
  // window; dependence distances in real loop nests are tiny, and callers
  // treat nullopt as "not constant" (safe).
  IntVec neg(coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) neg[i] = -coeffs[i];

  for (std::int64_t v = -8; v <= 8; ++v) {
    ConstraintSystem with_eq = *this;
    with_eq.add_equality(coeffs, checked_sub(constant, v));
    if (with_eq.is_empty()) continue;
    // e == v is possible; forced iff e != v is impossible.
    ConstraintSystem above = *this;
    above.add_inequality(coeffs, checked_sub(constant, v + 1));  // e >= v+1
    if (!above.is_empty()) return std::nullopt;
    ConstraintSystem below = *this;
    below.add_inequality(neg, checked_add(v - 1, -constant));    // e <= v-1
    if (!below.is_empty()) return std::nullopt;
    return v;
  }
  return std::nullopt;
}

std::vector<VarBounds> ConstraintSystem::derive_bounds(
    std::size_t loop_vars) const {
  std::vector<VarBounds> out(loop_vars);
  ConstraintSystem sys = *this;
  // Innermost first: bounds of var k may reference vars < k and parameters
  // (dims >= loop_vars are never eliminated).
  for (std::size_t k = loop_vars; k-- > 0;) {
    VarBounds& b = out[k];
    for (const Constraint& c : sys.constraints_) {
      const std::int64_t a = c.coeffs[k];
      if (a == 0) continue;
      // Any coefficient on a *later* loop var would mean the elimination
      // order is wrong; parameters are fine.
      bool later = false;
      for (std::size_t j = k + 1; j < loop_vars; ++j) {
        if (c.coeffs[j] != 0) later = true;
      }
      if (later) continue;  // already eliminated forms only

      VarBound vb;
      vb.coeffs.assign(dimensions_, 0);
      if (c.kind == ConstraintKind::Equality) {
        // a*x + rest == 0  ->  both bounds.
        VarBound lower = vb;
        VarBound upper = vb;
        const std::int64_t abs_a = a < 0 ? -a : a;
        for (std::size_t j = 0; j < dimensions_; ++j) {
          if (j == k) continue;
          const std::int64_t cj = (a > 0) ? -c.coeffs[j] : c.coeffs[j];
          lower.coeffs[j] = cj;
          upper.coeffs[j] = cj;
        }
        lower.constant = (a > 0) ? -c.constant : c.constant;
        upper.constant = lower.constant;
        lower.divisor = abs_a;
        upper.divisor = abs_a;
        b.lower.push_back(lower);
        b.upper.push_back(upper);
        continue;
      }
      if (a > 0) {
        // a*x >= -(rest)  ->  x >= ceild(-(rest), a)
        for (std::size_t j = 0; j < dimensions_; ++j) {
          if (j != k) vb.coeffs[j] = -c.coeffs[j];
        }
        vb.constant = -c.constant;
        vb.divisor = a;
        b.lower.push_back(std::move(vb));
      } else {
        // -|a|*x + rest >= 0  ->  x <= floord(rest, |a|)
        for (std::size_t j = 0; j < dimensions_; ++j) {
          if (j != k) vb.coeffs[j] = c.coeffs[j];
        }
        vb.constant = c.constant;
        vb.divisor = -a;
        b.upper.push_back(std::move(vb));
      }
    }
    sys = sys.eliminate(k);
  }
  return out;
}

std::string ConstraintSystem::to_string(
    const std::vector<std::string>& var_names) const {
  std::ostringstream out;
  for (const Constraint& c : constraints_) {
    out << c.to_string(var_names) << "\n";
  }
  return std::move(out).str();
}

}  // namespace purec::poly
