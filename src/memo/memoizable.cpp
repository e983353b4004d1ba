#include "memo/memoizable.h"

#include <cstdio>
#include <string_view>

#include "ast/walk.h"
#include "purity/effects.h"

namespace purec {

namespace {

/// Routines whose result observes the dynamic floating-point environment
/// (rounding mode): caching across fesetround calls would be unsound.
[[nodiscard]] bool fp_env_sensitive(const std::string& name) {
  static const std::set<std::string> kSensitive = {
      "rint",  "rintf",  "lrint",  "lrintf",  "llrint",  "llrintf",
      "nearbyint", "nearbyintf", "fegetround", "fesetround",
  };
  return kSensitive.count(name) != 0;
}

/// An arithmetic scalar that fits the cache's 64-bit value word.
[[nodiscard]] bool is_cacheable_scalar(const TypePtr& type) {
  return type != nullptr && type->kind == TypeKind::Builtin &&
         type->is_arithmetic() &&
         type->builtin != BuiltinKind::LongDouble;
}

/// True when the body is one `return` of a value (null statements and
/// pragmas aside): the only shape the cost gate prices.
[[nodiscard]] bool is_single_return(const FunctionDecl& fn) {
  const auto* block = stmt_cast<CompoundStmt>(fn.body.get());
  if (block == nullptr) return false;
  const ReturnStmt* ret = nullptr;
  for (const StmtPtr& s : block->stmts) {
    if (s->kind() == StmtKind::Null || s->kind() == StmtKind::Pragma) {
      continue;
    }
    if (ret != nullptr) return false;
    ret = stmt_cast<ReturnStmt>(s.get());
    if (ret == nullptr) return false;
  }
  return ret != nullptr && ret->value != nullptr;
}

/// Expression-node count over the whole body: the static callee-cost
/// proxy, reported for every function.
[[nodiscard]] std::size_t body_cost_nodes(const FunctionDecl& fn) {
  if (fn.body == nullptr) return 0;
  std::size_t nodes = 0;
  for_each_expr(static_cast<const Stmt&>(*fn.body),
                [&](const Expr&) { ++nodes; });
  return nodes;
}

class Classifier {
 public:
  Classifier(const TranslationUnit& tu, const SymbolTable& symbols,
             const std::set<std::string>& pure_functions,
             const PurityOptions& options, bool cost_gate)
      : symbols_(symbols),
        pure_functions_(pure_functions),
        cost_gate_(cost_gate) {
    for (const FunctionDecl* fn : tu.functions()) {
      if (!fn->is_definition() || pure_functions.count(fn->name) == 0) {
        continue;
      }
      if (summaries_.count(fn->name) != 0) continue;
      const FunctionScopeInfo* scope = symbols.scope_for(*fn);
      if (scope == nullptr) continue;
      summaries_.emplace(fn->name,
                         compute_effects(*fn, *scope,
                                         options.allow_malloc_free));
      definitions_.emplace(fn->name, fn);
    }
  }

  [[nodiscard]] MemoizableResult run() {
    MemoizableResult result;
    for (const auto& [name, fn] : definitions_) {
      MemoFunctionInfo info = classify(name, *fn);
      if (info.memoizable) result.memoizable.insert(name);
      result.functions.emplace(name, std::move(info));
    }
    return result;
  }

 private:
  [[nodiscard]] MemoFunctionInfo classify(const std::string& name,
                                          const FunctionDecl& fn) {
    MemoFunctionInfo info;
    info.name = name;
    info.loc = fn.loc;
    info.return_type = fn.return_type;
    info.cost_nodes = body_cost_nodes(fn);

    const auto reject = [&](std::string reason) {
      info.memoizable = false;
      info.reason = std::move(reason);
      return info;
    };

    const EffectSummary& effects = summaries_.at(name);
    if (!effects.pure_locally) {
      // Declared-pure bodies pass the §3.2 verifier on promise semantics
      // (pure casts); the effect scanner is stricter. Memoization trusts
      // only what it can analyze.
      return reject(effects.impurity_reason);
    }

    if (fn.return_type == nullptr || fn.return_type->is_void()) {
      return reject("returns void (no result to cache)");
    }
    if (fn.returns_pure_pointer || !is_cacheable_scalar(fn.return_type)) {
      return reject("returns " + fn.return_type->to_string() +
                    " (only arithmetic scalars fit a cache word)");
    }
    for (const ParamDecl& p : fn.params) {
      if (!is_cacheable_scalar(p.type)) {
        return reject("parameter '" + p.name + "' is " +
                      p.type->to_string() +
                      " (read extent not statically known)");
      }
      info.param_types.push_back(p.type);
    }

    // Shape cost gate: for a mult-sized leaf the hash/probe round trip
    // costs more than just recomputing the expression.
    if (cost_gate_ && is_single_return(fn) &&
        info.cost_nodes < kMemoTrivialExprNodes) {
      return reject("single-expression body of " +
                    std::to_string(info.cost_nodes) +
                    " node(s) below the cost gate (recompute beats the "
                    "table trip; --memoize=all overrides)");
    }

    // Transitive closure over callees: every edge must stay inside the
    // analyzed definitions or the deterministic part of the seed set.
    std::set<std::string> visited{name};
    std::set<std::string> global_reads(effects.global_reads.begin(),
                                       effects.global_reads.end());
    std::vector<std::string> frontier{name};
    while (!frontier.empty()) {
      const std::string current = frontier.back();
      frontier.pop_back();
      const EffectSummary& summary = summaries_.at(current);
      if (summary.allocates || summary.frees) {
        return reject(closure_site(name, current) +
                      "allocates (addresses vary across runs)");
      }
      // Database-modeled externs are pure enough for parallelization but
      // not all are cacheable: snprintf formats through the dynamic
      // locale, so identical arguments can produce different bytes
      // across setlocale calls.
      if (summary.extern_calls.count("snprintf") != 0) {
        return reject(closure_site(name, current) +
                      "calls 'snprintf' (locale-sensitive formatting)");
      }
      // Same locale hazard in reverse: C11 7.22.1.3/7.22.1.4 let other
      // locales accept additional subject-sequence forms, so identical
      // argument bytes can parse differently across setlocale calls.
      for (const char* parser : {"strtol", "strtoul", "strtod", "strtof"}) {
        if (summary.extern_calls.count(parser) != 0) {
          return reject(closure_site(name, current) + "calls '" +
                        std::string(parser) +
                        "' (locale-sensitive parsing)");
        }
      }
      for (const std::string& callee : summary.callees) {
        if (visited.count(callee) != 0) continue;
        if (fp_env_sensitive(callee)) {
          return reject(closure_site(name, current) + "calls '" + callee +
                        "' (floating-point-environment sensitive)");
        }
        const auto it = summaries_.find(callee);
        if (it != summaries_.end()) {
          visited.insert(callee);
          const EffectSummary& sub = it->second;
          global_reads.insert(sub.global_reads.begin(),
                              sub.global_reads.end());
          frontier.push_back(callee);
          continue;
        }
        if (standard_pure_functions().count(callee) != 0) continue;
        if (callee == "malloc" || callee == "calloc" || callee == "free") {
          return reject(closure_site(name, current) +
                        "allocates (addresses vary across runs)");
        }
        if (pure_functions_.count(callee) != 0) {
          return reject(closure_site(name, current) +
                        "calls extern pure function '" + callee +
                        "' (definition unavailable to the analysis)");
        }
        return reject(closure_site(name, current) + "calls '" + callee +
                      "' outside the analyzed closure");
      }
    }

    // The global-read snapshot: bounded, scalar-only, sorted for a
    // deterministic key layout.
    if (global_reads.size() > kMemoMaxGlobalSnapshot) {
      return reject("reads " + std::to_string(global_reads.size()) +
                    " globals (snapshot bound is " +
                    std::to_string(kMemoMaxGlobalSnapshot) + ")");
    }
    for (const std::string& global : global_reads) {
      const GlobalVarDecl* decl = symbols_.find_global(global);
      if (decl == nullptr) {
        return reject("reads undeclared external '" + global + "'");
      }
      if (!is_cacheable_scalar(decl->var.type)) {
        return reject("reads global '" + global + "' of type " +
                      decl->var.type->to_string() +
                      " (snapshot would be unbounded)");
      }
      info.global_snapshot.emplace_back(global, decl->var.type);
    }

    info.memoizable = true;
    return info;
  }

  /// "via 'dot', " prefix when the offending edge is in a callee, so the
  /// reason names where the problem actually sits.
  [[nodiscard]] static std::string closure_site(const std::string& root,
                                                const std::string& site) {
    return site == root ? std::string{} : "via '" + site + "', ";
  }

  const SymbolTable& symbols_;
  const std::set<std::string>& pure_functions_;
  bool cost_gate_ = false;
  std::map<std::string, EffectSummary> summaries_;
  std::map<std::string, const FunctionDecl*> definitions_;
};

}  // namespace

MemoProfile parse_memo_profile(const std::string& text) {
  MemoProfile profile;
  constexpr std::string_view kPrefix = "purec-memo[";
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    const std::size_t close = line.find(']', kPrefix.size());
    if (close == std::string::npos) continue;
    const std::string name =
        line.substr(kPrefix.size(), close - kPrefix.size());
    if (name.empty()) continue;
    unsigned long long hits = 0;
    unsigned long long misses = 0;
    unsigned long long evictions = 0;
    unsigned long long bypassed = 0;
    const int fields = std::sscanf(
        line.c_str() + close + 1,
        " hits=%llu misses=%llu evictions=%llu bypassed=%llu", &hits,
        &misses, &evictions, &bypassed);
    if (fields < 3) continue;
    // Sum rather than overwrite: a fleet run dumps one line per process
    // per thunk, and the observed reuse is their combined traffic.
    MemoProfileEntry& entry = profile[name];
    entry.hits += hits;
    entry.misses += misses;
    entry.evictions += evictions;
    entry.bypassed += bypassed;
  }
  return profile;
}

std::string MemoizableResult::summary() const {
  std::string yes;
  std::string no;
  for (const auto& [name, info] : functions) {
    if (info.memoizable) {
      if (!yes.empty()) yes += ", ";
      yes += name;
    } else {
      if (!no.empty()) no += ", ";
      no += name + " (" + info.reason + ")";
    }
  }
  std::string out = "memoizable: " + (yes.empty() ? "-" : yes);
  if (!no.empty()) out += "; rejected: " + no;
  return out;
}

MemoizableResult classify_memoizable(const TranslationUnit& tu,
                                     const SymbolTable& symbols,
                                     const std::set<std::string>& pure_functions,
                                     const PurityOptions& options,
                                     bool cost_gate) {
  return Classifier(tu, symbols, pure_functions, options, cost_gate).run();
}

}  // namespace purec
