#include "transform/pure_chain.h"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <optional>
#include <set>

#include "ast/walk.h"
#include "emit/c_printer.h"
#include "emit/instrument.h"
#include "lexer/lexer.h"
#include "memo/memo_codegen.h"
#include "parser/parser.h"
#include "polyhedral/dependence.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "preproc/include_stripper.h"
#include "preproc/mini_cpp.h"
#include "purity/callgraph.h"
#include "purity/local_pointers.h"
#include "sema/symbols.h"
#include "support/rational.h"
#include "transform/call_substitution.h"
#include "transform/loop_canon.h"
#include "transform/pure_inliner.h"

namespace purec {

namespace {

/// Finds the owning slot of `target` anywhere under `root` (compound
/// children, if branches, loop bodies). Returns nullptr if absent.
StmtPtr* find_stmt_slot(CompoundStmt& root, const Stmt* target) {
  StmtPtr* found = nullptr;
  std::function<void(StmtPtr&)> visit = [&](StmtPtr& slot) {
    if (found != nullptr || !slot) return;
    if (slot.get() == target) {
      found = &slot;
      return;
    }
    switch (slot->kind()) {
      case StmtKind::Compound:
        for (StmtPtr& child : static_cast<CompoundStmt&>(*slot).stmts) {
          visit(child);
        }
        return;
      case StmtKind::If: {
        auto& n = static_cast<IfStmt&>(*slot);
        visit(n.then_stmt);
        if (n.else_stmt) visit(n.else_stmt);
        return;
      }
      case StmtKind::For: {
        auto& n = static_cast<ForStmt&>(*slot);
        if (n.body) visit(n.body);
        return;
      }
      case StmtKind::While:
        visit(static_cast<WhileStmt&>(*slot).body);
        return;
      case StmtKind::DoWhile:
        visit(static_cast<DoWhileStmt&>(*slot).body);
        return;
      default:
        return;
    }
  };
  for (StmtPtr& child : root.stmts) visit(child);
  return found;
}

/// Finds the compound statement that directly owns `target`.
CompoundStmt* find_owning_compound(Stmt& s, const Stmt* target) {
  if (auto* block = stmt_cast<CompoundStmt>(&s)) {
    for (StmtPtr& child : block->stmts) {
      if (child.get() == target) return block;
    }
    for (StmtPtr& child : block->stmts) {
      if (CompoundStmt* hit = find_owning_compound(*child, target)) {
        return hit;
      }
    }
    return nullptr;
  }
  switch (s.kind()) {
    case StmtKind::If: {
      auto& n = static_cast<IfStmt&>(s);
      if (CompoundStmt* hit = find_owning_compound(*n.then_stmt, target)) {
        return hit;
      }
      return n.else_stmt ? find_owning_compound(*n.else_stmt, target)
                         : nullptr;
    }
    case StmtKind::For: {
      auto& n = static_cast<ForStmt&>(s);
      return n.body ? find_owning_compound(*n.body, target) : nullptr;
    }
    case StmtKind::While:
      return find_owning_compound(*static_cast<WhileStmt&>(s).body, target);
    case StmtKind::DoWhile:
      return find_owning_compound(*static_cast<DoWhileStmt&>(s).body, target);
    default:
      return nullptr;
  }
}

/// What a statement executed *after* the nest does to the iterator:
/// reads its (lost) value, unconditionally overwrites it before any
/// read, or never mentions it.
enum class IterFate { NoRef, Killed, Read };

/// Plain `name = rhs` with `name` absent from rhs: the old value dies.
[[nodiscard]] bool is_kill_assignment(const Stmt* s,
                                      const std::string& name) {
  const auto* es = stmt_cast<ExprStmt>(s);
  const auto* assign = es ? expr_cast<AssignExpr>(es->expr.get()) : nullptr;
  const auto* ident =
      assign ? expr_cast<IdentExpr>(assign->lhs.get()) : nullptr;
  if (assign == nullptr || assign->op != AssignOp::Assign ||
      ident == nullptr || ident->name != name) {
    return false;
  }
  return !references_identifier(*assign->rhs, name);
}

[[nodiscard]] IterFate iterator_fate(const Stmt& s,
                                     const std::string& name) {
  switch (s.kind()) {
    case StmtKind::Expr:
      if (is_kill_assignment(&s, name)) return IterFate::Killed;
      return references_identifier(s, name) ? IterFate::Read : IterFate::NoRef;
    case StmtKind::Compound: {
      for (const StmtPtr& child :
           static_cast<const CompoundStmt&>(s).stmts) {
        // A nested declaration of the same name shadows the remainder
        // of this block only — skip it, but keep scanning outside.
        if (const auto* decl = stmt_cast<DeclStmt>(child.get())) {
          bool shadows = false;
          for (const VarDecl& d : decl->decls) {
            if (d.init && references_identifier(*d.init, name)) {
              return IterFate::Read;
            }
            if (d.name == name) shadows = true;
          }
          if (shadows) return IterFate::NoRef;
          continue;
        }
        const IterFate fate = iterator_fate(*child, name);
        if (fate != IterFate::NoRef) return fate;
      }
      return IterFate::NoRef;
    }
    case StmtKind::If: {
      const auto& branch = static_cast<const IfStmt&>(s);
      if (references_identifier(*branch.cond, name)) return IterFate::Read;
      const IterFate then_fate = iterator_fate(*branch.then_stmt, name);
      if (then_fate == IterFate::Read) return IterFate::Read;
      const IterFate else_fate =
          branch.else_stmt ? iterator_fate(*branch.else_stmt, name)
                           : IterFate::NoRef;
      if (else_fate == IterFate::Read) return IterFate::Read;
      // Only a kill on BOTH paths guarantees the old value is dead.
      if (then_fate == IterFate::Killed && else_fate == IterFate::Killed) {
        return IterFate::Killed;
      }
      return IterFate::NoRef;
    }
    case StmtKind::For: {
      const auto& loop = static_cast<const ForStmt&>(s);
      // A later loop re-initializing the variable kills the old value;
      // a decl-init loop of the same name shadows its own subtree.
      if (is_kill_assignment(loop.init.get(), name)) {
        return IterFate::Killed;
      }
      if (const auto* decl = stmt_cast<DeclStmt>(loop.init.get())) {
        if (decl->decls.size() == 1 && decl->decls[0].name == name &&
            (!decl->decls[0].init ||
             !references_identifier(*loop.init, name))) {
          return IterFate::NoRef;
        }
      }
      return references_identifier(s, name) ? IterFate::Read : IterFate::NoRef;
    }
    default:
      return references_identifier(s, name) ? IterFate::Read : IterFate::NoRef;
  }
}

/// Fate of `name` in the statements that execute after `nest` inside
/// subtree `s`. `found` reports whether the nest was seen; `in_loop`
/// reports the nest sits under an enclosing loop (its value is then
/// consumed by statements *before* it textually, so any outside
/// reference is conservatively a read).
[[nodiscard]] IterFate fate_after_nest(const Stmt& s, const Stmt* nest,
                                       const std::string& name,
                                       bool& found, bool& in_loop) {
  if (&s == nest) {
    found = true;
    return IterFate::NoRef;
  }
  switch (s.kind()) {
    case StmtKind::Compound: {
      const auto& block = static_cast<const CompoundStmt&>(s);
      for (std::size_t i = 0; i < block.stmts.size(); ++i) {
        const IterFate fate =
            fate_after_nest(*block.stmts[i], nest, name, found, in_loop);
        if (!found) continue;
        if (fate != IterFate::NoRef) return fate;
        for (std::size_t k = i + 1; k < block.stmts.size(); ++k) {
          const IterFate sibling = iterator_fate(*block.stmts[k], name);
          if (sibling != IterFate::NoRef) return sibling;
        }
        return IterFate::NoRef;
      }
      return IterFate::NoRef;
    }
    case StmtKind::If: {
      const auto& branch = static_cast<const IfStmt&>(s);
      IterFate fate =
          fate_after_nest(*branch.then_stmt, nest, name, found, in_loop);
      if (found) return fate;
      if (branch.else_stmt) {
        fate = fate_after_nest(*branch.else_stmt, nest, name, found,
                               in_loop);
        if (found) return fate;
      }
      return IterFate::NoRef;
    }
    case StmtKind::For: {
      const auto& loop = static_cast<const ForStmt&>(s);
      if (loop.body) {
        const IterFate fate =
            fate_after_nest(*loop.body, nest, name, found, in_loop);
        if (found) {
          in_loop = true;
          return fate;
        }
      }
      return IterFate::NoRef;
    }
    case StmtKind::While:
    case StmtKind::DoWhile: {
      const Stmt* body = s.kind() == StmtKind::While
                             ? static_cast<const WhileStmt&>(s).body.get()
                             : static_cast<const DoWhileStmt&>(s).body.get();
      if (body != nullptr) {
        const IterFate fate =
            fate_after_nest(*body, nest, name, found, in_loop);
        if (found) {
          in_loop = true;
          return fate;
        }
      }
      return IterFate::NoRef;
    }
    default:
      return IterFate::NoRef;
  }
}

/// Name of the first scop-loop iterator that (a) lives in an enclosing
/// scope (`i = 0` for-init — the shape while-canonicalization produces)
/// and (b) is referenced outside the nest. Both lowering paths lose the
/// iterator's post-loop value — the classic path regenerates the nest
/// over fresh `t*` variables and never assigns the original, and an
/// OpenMP-annotated loop privatizes it, leaving the original
/// indeterminate after the region — so such nests must stay serial.
/// Returns empty when no iterator escapes.
std::string escaping_iterator_use(const poly::Scop& scop,
                                  const FunctionDecl& fn,
                                  const ForStmt& root,
                                  const SymbolTable& symbols) {
  std::vector<std::string> candidates;
  for (std::size_t j = 0; j < scop.loop_asts.size(); ++j) {
    const ForStmt* loop = scop.loop_asts[j];
    if (loop != nullptr && loop->init != nullptr &&
        stmt_cast<ExprStmt>(loop->init.get()) != nullptr) {
      candidates.push_back(scop.iterators[j]);
    }
  }
  if (candidates.empty() || !fn.body) return {};
  const auto count_in = [](const Stmt& s, const std::string& name) {
    std::size_t count = 0;
    for_each_expr(s, [&](const Expr& e) {
      const auto* ident = expr_cast<IdentExpr>(&e);
      if (ident != nullptr && ident->name == name) ++count;
    });
    return count;
  };
  for (const std::string& name : candidates) {
    // A file-scope induction variable escapes by definition: any other
    // function can observe its post-loop value, and no in-function
    // analysis can see that.
    if (symbols.find_global(name) != nullptr) return name;
    // No references outside the nest at all: trivially safe.
    if (count_in(*fn.body, name) <=
        count_in(static_cast<const Stmt&>(root), name)) {
      continue;
    }
    // References exist elsewhere — decide by what actually happens to
    // the variable after the nest: an unconditional re-initialization
    // (e.g. a sibling `for (i = 0; ...)`) kills the value before any
    // read, references only *before* a straight-line nest are reads of
    // pre-nest values, but a read — or any outside reference when the
    // nest re-executes under an enclosing loop — escapes.
    bool found = false;
    bool in_loop = false;
    const IterFate fate = fate_after_nest(
        *fn.body, static_cast<const Stmt*>(&root), name, found, in_loop);
    if (!found || in_loop || fate == IterFate::Read) return name;
  }
  return {};
}

/// Calls `see` with the type of every declaration of `name` that code in
/// `fn` may see: a local in any block, a parameter, a global.
void for_each_declaration(const FunctionDecl& fn, const SymbolTable& symbols,
                          const std::string& name,
                          const std::function<void(const Type*)>& see) {
  if (fn.body) {
    for_each_stmt(*fn.body, [&](const Stmt& s) {
      if (const auto* decl = stmt_cast<DeclStmt>(&s)) {
        for (const VarDecl& d : decl->decls) {
          if (d.name == name) see(d.type.get());
        }
      }
    });
  }
  for (const ParamDecl& param : fn.params) {
    if (param.name == name) see(param.type.get());
  }
  if (const GlobalVarDecl* global = symbols.find_global(name)) {
    see(global->var.type.get());
  }
}

/// A signed integer type: no typedef, unsigned or floating type, and no
/// plain char.
[[nodiscard]] bool signed_integer(const Type* t) {
  if (t == nullptr || t->kind != TypeKind::Builtin) return false;
  switch (t->builtin) {
    case BuiltinKind::SChar:
    case BuiltinKind::Short:
    case BuiltinKind::Int:
    case BuiltinKind::Long:
    case BuiltinKind::LongLong:
      return true;
    default:
      return false;
  }
}

/// True when `name` has a declaration that code in `fn` may see and every
/// such declaration's type passes `is`. A substituted call's placeholder
/// has no declaration and fails.
[[nodiscard]] bool every_declaration(
    const FunctionDecl& fn, const SymbolTable& symbols,
    const std::string& name, const std::function<bool(const Type*)>& is) {
  bool declared = false;
  bool all = true;
  for_each_declaration(fn, symbols, name, [&](const Type* t) {
    declared = true;
    all = all && is(t);
  });
  return declared && all;
}

/// A name a loop header reads, with the declared type that keeps the
/// header from becoming an emitted loop's bound.
struct OffTypeBound {
  std::string name;
  const Type* type = nullptr;
};

/// The first of `names` that a loop header of `nest` reads and that some
/// declaration in `fn`'s view types as other than a signed integer. The
/// header becomes the bound of an emitted loop over an `int` iterator:
/// gcc rejects `t1 <= x - 1` over a float `x` as an invalid controlling
/// predicate, and an unsigned `n - 1` wraps at n = 0. A guard may read
/// one: it stays an `if`. A substituted call's placeholder has no
/// declaration and passes.
[[nodiscard]] std::optional<OffTypeBound> off_type_bound(
    const ForStmt& nest, const std::vector<std::string>& names,
    const FunctionDecl& fn, const SymbolTable& symbols) {
  std::optional<OffTypeBound> found;
  for_each_stmt(nest, [&](const Stmt& s) {
    const auto* loop = stmt_cast<ForStmt>(&s);
    if (loop == nullptr || found) return;
    for (const std::string& name : names) {
      if (!(loop->init && references_identifier(*loop->init, name)) &&
          !(loop->cond && references_identifier(*loop->cond, name))) {
        continue;
      }
      for_each_declaration(fn, symbols, name, [&](const Type* t) {
        if (!found && t != nullptr && !signed_integer(t)) {
          found = OffTypeBound{name, t};
        }
      });
    }
  });
  return found;
}

// ---- Local pointer bases --------------------------------------------------
//
// Dependence analysis keys accesses on the base name, so `alias[i]` and
// `array[i]` look like two objects even after `int* alias = array;`
// (paper Listing 6). The chain rebases accesses through the local pointers
// purity/local_pointers.h resolves onto the object they point into.

/// An object a substituted pure call reads through its arguments (or, for
/// an inferred-pure callee, as a global): the argument's name and callee.
struct CallRead {
  std::string via;
  std::string callee;
};

/// Adds the roots the substituted `calls` read to `reads`, keyed by the
/// object each argument's identifiers resolve to. The calls are hidden
/// behind their `tmpConst_*` placeholders, so dependence analysis never
/// sees these reads.
void collect_call_reads(
    const std::vector<SubstitutedCall>& calls, const FunctionScopeInfo& scope,
    const PointerBases& pointers,
    const std::map<std::string, std::set<std::string>>& global_reads,
    std::map<std::string, CallRead>& reads) {
  for (const SubstitutedCall& call : calls) {
    const auto* expr = expr_cast<CallExpr>(call.original.get());
    if (expr == nullptr) continue;
    for (const ExprPtr& arg : expr->args) {
      for_each_expr(*arg, [&](const Expr& e) {
        // Only a pointer or an array hands over an object by reference.
        const auto* ident = expr_cast<IdentExpr>(&e);
        const Symbol* sym = ident ? scope.resolve(*ident) : nullptr;
        if (sym == nullptr || sym->type == nullptr ||
            !(sym->type->is_pointer() || sym->type->is_array())) {
          return;
        }
        const auto it = pointers.resolved.find(ident->name);
        const std::string& root =
            it != pointers.resolved.end() ? it->second.root : ident->name;
        reads.emplace(root, CallRead{ident->name, call.callee});
      });
    }
    const auto globals = global_reads.find(call.callee);
    if (globals == global_reads.end()) continue;
    for (const std::string& global : globals->second) {
      reads.emplace(global, CallRead{global, call.callee});
    }
  }
}

/// Why a nest must stay serial although its modeled dependences may allow
/// more: set when a write can meet an access the model cannot see, or
/// when the nest touches a volatile object.
struct SerialVerdict {
  std::string reason;
  SourceLocation loc;
};

/// Rebases the scop's accesses through resolved local pointers (`p[e]`
/// with `p = &X[k]` becomes `X[e + k]`), then judges the writes. The nest
/// must stay serial when it writes
///  * an object a substituted pure call reads (directly or through a
///    pointer: the call's accesses are hidden from the model);
///  * through an unresolved local pointer while touching another object,
///    or any object while touching an unresolved local pointer;
///  * a pointer's object whose subscripts cannot be compared with the
///    pointer's (different rank or delinearization).
/// `calls` are the nest's substituted calls, whose arguments `scope`
/// resolves; `global_reads` the globals each inferred-pure callee reads.
[[nodiscard]] SerialVerdict rebase_local_pointers(
    poly::Scop& scop, const FunctionScopeInfo& scope,
    const PointerBases& pointers,
    std::initializer_list<const std::vector<SubstitutedCall>*> calls,
    const std::map<std::string, std::set<std::string>>& global_reads) {
  std::map<std::string, CallRead> call_reads;
  for (const std::vector<SubstitutedCall>* nest_calls : calls) {
    collect_call_reads(*nest_calls, scope, pointers, global_reads,
                       call_reads);
  }
  SerialVerdict verdict;
  const auto judge = [&](const poly::ScopStatement& stmt, std::string why) {
    if (!verdict.reason.empty()) return;
    verdict.reason = std::move(why);
    verdict.loc = stmt.ast != nullptr ? stmt.ast->loc : scop.root->loc;
  };
  const auto root_of = [&](const std::string& base) {
    const auto it = pointers.resolved.find(base);
    return it != pointers.resolved.end() ? it->second.root : base;
  };
  // Objects the nest touches, in first-access order, the calls' last.
  std::vector<std::string> touched;
  const auto touch = [&](const std::string& name) {
    if (std::find(touched.begin(), touched.end(), name) == touched.end()) {
      touched.push_back(name);
    }
  };
  for (const poly::ScopStatement& stmt : scop.statements) {
    for (const poly::Access& access : stmt.accesses) {
      if (!access.subscripts.empty()) touch(access.array);
    }
  }
  for (const auto& entry : call_reads) touch(entry.first);
  const auto other_than = [&](const std::string& base, bool unresolved) {
    for (const std::string& name : touched) {
      if (name != base &&
          (!unresolved || pointers.unresolved.count(name) != 0)) {
        return name;
      }
    }
    return std::string();
  };

  for (const poly::ScopStatement& stmt : scop.statements) {
    for (const poly::Access& access : stmt.accesses) {
      if (access.kind != poly::AccessKind::Write ||
          access.subscripts.empty()) {
        continue;
      }
      const std::string root = root_of(access.array);
      const auto read = call_reads.find(root);
      if (read != call_reads.end()) {
        const std::string& pointer =
            access.array != root ? access.array : read->second.via;
        judge(stmt, pointer != root
                        ? "may-alias: '" + pointer + "' points into '" +
                              root + "', which the nest writes while the "
                              "pure call '" + read->second.callee +
                              "' reads it (the call's accesses are hidden "
                              "from dependence analysis)"
                        : "'" + root + "' is written in the nest and read "
                              "by the pure call '" + read->second.callee +
                              "' (Listing 5 rule)");
      }
      if (pointers.unresolved.count(access.array) != 0) {
        const std::string other = other_than(access.array, false);
        if (!other.empty()) {
          judge(stmt, "may-alias: local pointer '" + access.array +
                          "' does not resolve to one object and may point "
                          "into '" + other + "'");
        }
      } else if (const std::string pointer = other_than(access.array, true);
                 !pointer.empty()) {
        judge(stmt, "may-alias: local pointer '" + pointer +
                        "' does not resolve to one object and may point "
                        "into '" + access.array + "', which the nest "
                        "writes");
      }
    }
  }

  for (const auto& [pointer, target] : pointers.resolved) {
    // Every subscripted access to the pointer or its object must agree on
    // rank and delinearization, and an offset only shifts a plain first
    // subscript; otherwise the two cannot be compared.
    const poly::Access* first = nullptr;
    const poly::ScopStatement* writer = nullptr;
    bool comparable = true;
    bool used = false;
    for (const poly::ScopStatement& stmt : scop.statements) {
      for (const poly::Access& a : stmt.accesses) {
        if (a.subscripts.empty() ||
            (a.array != pointer && a.array != target.root)) {
          continue;
        }
        used = used || a.array == pointer;
        if (a.kind == poly::AccessKind::Write && writer == nullptr) {
          writer = &stmt;
        }
        if (first == nullptr) first = &a;
        comparable = comparable &&
                     a.subscripts.size() == first->subscripts.size() &&
                     a.delinearized_by == first->delinearized_by &&
                     (a.array != pointer || target.offset == 0 ||
                      a.delinearized_by.empty());
      }
    }
    if (!used) continue;
    if (!comparable) {
      if (writer != nullptr) {
        judge(*writer, "may-alias: '" + pointer + "' points into '" +
                           target.root + "', but their subscripts cannot "
                           "be compared");
      }
      continue;
    }
    for (poly::ScopStatement& stmt : scop.statements) {
      for (poly::Access& a : stmt.accesses) {
        if (a.array != pointer || a.subscripts.empty()) continue;
        a.array = target.root;
        a.subscripts[0].constant += target.offset;
      }
    }
  }
  return verdict;
}

/// Visits every expression of a nest: the loop's own and those of the
/// calls substitution moved out of it.
void for_each_nest_expr(
    const ForStmt& loop,
    std::initializer_list<const std::vector<SubstitutedCall>*> calls,
    const std::function<void(const Expr&)>& fn) {
  for_each_expr(static_cast<const Stmt&>(loop), fn);
  for (const std::vector<SubstitutedCall>* nest_calls : calls) {
    for (const SubstitutedCall& call : *nest_calls) {
      if (call.original) {
        for_each_expr(static_cast<const Expr&>(*call.original), fn);
      }
    }
  }
}

/// The first access in a nest to a volatile object: an identifier whose
/// declared type is volatile at some level, or a cast to such a type.
/// Every such access must happen as written, in order, so the nest may be
/// neither reordered nor split over threads.
[[nodiscard]] SerialVerdict volatile_access(
    const ForStmt& loop, const FunctionScopeInfo& scope,
    std::initializer_list<const std::vector<SubstitutedCall>*> calls) {
  SerialVerdict verdict;
  const auto judge = [&](const Expr& e) {
    if (!verdict.reason.empty()) return;
    const Type* type = nullptr;
    std::string what;
    if (const auto* ident = expr_cast<IdentExpr>(&e)) {
      const Symbol* sym = scope.resolve(*ident);
      type = sym != nullptr ? sym->type.get() : nullptr;
      what = "'" + ident->name + "' is volatile";
    } else if (const auto* cast = expr_cast<CastExpr>(&e)) {
      type = cast->target_type.get();
      what = "cast to '" + cast->target_type->to_string() + "'";
    }
    if (type == nullptr || !type->any_level_volatile()) return;
    verdict.reason =
        "volatile: " + what + " (its accesses stay as written, in order)";
    verdict.loc = e.loc;
  };
  for_each_nest_expr(loop, calls, judge);
  return verdict;
}

/// Why the default mode puts `#pragma omp simd` on no loop of this nest
/// ("" when it may). A callee that runs a loop (in its body, in a callee
/// or by recursion) hands each SIMD lane an inner loop of its own:
/// vectorized around matmul's `dot`, whose lanes then read different rows,
/// the nest ran at 0.72x of the plain-gcc reference where it ran at 0.98x
/// unvectorized (n = 320, 1 thread). A memoized callee's thunk probes its
/// table in a loop and updates it.
[[nodiscard]] std::string simd_blocker(
    const ForStmt& loop, const std::vector<SubstitutedCall>& calls,
    const std::map<std::string, LoopWitness>& callee_loops,
    const std::set<std::string>& memoized) {
  std::string reason;
  const auto judge = [&](const Expr& e) {
    const auto* call = expr_cast<CallExpr>(&e);
    if (call == nullptr || !reason.empty()) return;
    const std::string callee = call->callee_name();
    const auto it = callee_loops.find(callee);
    if (it != callee_loops.end()) {
      const LoopWitness& w = it->second;
      reason = "callee '" + callee + "' ";
      if (w.function == callee) {
        reason += w.recursive ? "is recursive" : "contains a loop";
      } else {
        reason += w.recursive ? "calls recursive '" + w.function + "'"
                              : "contains a loop (in '" + w.function + "')";
      }
    } else if (memoized.count(callee) != 0) {
      reason = "callee '" + callee +
               "' is memoized (its thunk probes and updates a table)";
    }
  };
  for_each_nest_expr(loop, {&calls}, judge);
  return reason;
}

/// How far subscript `e` moves when each source iterator in `step` moves
/// by its entry; nullopt when that is not a constant (`k * rows` along
/// `k`, or an iterator inside a call or a nested subscript).
[[nodiscard]] std::optional<std::int64_t> subscript_step(
    const Expr& e, const std::map<std::string, std::int64_t>& step) {
  if (const auto* ident = expr_cast<IdentExpr>(&e)) {
    const auto it = step.find(ident->name);
    return it == step.end() ? 0 : it->second;
  }
  if (expr_cast<IntLiteralExpr>(&e) != nullptr) return 0;
  if (const auto* cast = expr_cast<CastExpr>(&e)) {
    return subscript_step(*cast->operand, step);
  }
  const auto* unary = expr_cast<UnaryExpr>(&e);
  if (unary != nullptr && unary->op == UnaryOp::Plus) {
    return subscript_step(*unary->operand, step);
  }
  if (unary != nullptr && unary->op == UnaryOp::Minus) {
    const auto s = subscript_step(*unary->operand, step);
    if (s) return -*s;
    return std::nullopt;
  }
  const auto* binary = expr_cast<BinaryExpr>(&e);
  if (binary != nullptr &&
      (binary->op == BinaryOp::Add || binary->op == BinaryOp::Sub ||
       binary->op == BinaryOp::Mul)) {
    const auto l = subscript_step(*binary->lhs, step);
    const auto r = subscript_step(*binary->rhs, step);
    if (!l || !r) return std::nullopt;
    if (binary->op == BinaryOp::Add) return *l + *r;
    if (binary->op == BinaryOp::Sub) return *l - *r;
    if (*l == 0 && *r == 0) return 0;
    // A moving factor times a literal moves by a constant; times anything
    // else (a parameter, another moving factor) it does not.
    const auto* lit = expr_cast<IntLiteralExpr>(
        *l == 0 ? binary->lhs.get() : binary->rhs.get());
    if (lit != nullptr && (*l == 0 || *r == 0)) return lit->value * (*l + *r);
    return std::nullopt;
  }
  bool moves = false;
  for_each_expr(e, [&](const Expr& sub) {
    const auto* ident = expr_cast<IdentExpr>(&sub);
    if (ident == nullptr) return;
    const auto it = step.find(ident->name);
    if (it != step.end() && it->second != 0) moves = true;
  });
  if (moves) return std::nullopt;
  return 0;
}

/// A loop that takes `#pragma omp simd` when the nest gets it: how it is
/// named in a reason, and how far one of its trips moves each source
/// iterator.
struct SimdLoop {
  std::string name;
  std::map<std::string, std::int64_t> step;
};

/// Why the default mode puts `#pragma omp simd` on no loop of this nest
/// although its callees allow it ("" when it may): a simd loop that moves
/// any subscript of an access but the last (a transposed `M[j][i]` along
/// `j`), or the last by a stride other than 0 or +-1 (ell's column-major
/// `values[k * rows + row]` along `k`), makes every lane load or store
/// its own cache line, which the pragma forces gcc to gather and scatter.
/// Calls' arguments count: their accesses are hidden from the model, not
/// from the lanes.
[[nodiscard]] std::string stride_blocker(
    const ForStmt& loop, const std::vector<SubstitutedCall>& calls,
    const std::vector<SimdLoop>& simd_loops) {
  // An access is the outermost IndexExpr of a chain; its base chain
  // holds the earlier subscripts.
  std::set<const Expr*> bases;
  for_each_nest_expr(loop, {&calls}, [&](const Expr& e) {
    if (const auto* index = expr_cast<IndexExpr>(&e)) {
      bases.insert(index->base.get());
    }
  });
  std::string reason;
  for (const SimdLoop& simd : simd_loops) {
    for_each_nest_expr(loop, {&calls}, [&](const Expr& e) {
      const auto* access = expr_cast<IndexExpr>(&e);
      if (access == nullptr || !reason.empty() || bases.count(&e) != 0) {
        return;
      }
      const std::string where =
          "loop " + simd.name + " strides '" + print_c(e) + "' by ";
      for (const auto* earlier = expr_cast<IndexExpr>(access->base.get());
           earlier != nullptr;
           earlier = expr_cast<IndexExpr>(earlier->base.get())) {
        const auto moved = subscript_step(*earlier->index, simd.step);
        if (!moved || *moved != 0) {
          reason = where + "a whole row (it moves a subscript other than "
                           "the last)";
          return;
        }
      }
      const auto last = subscript_step(*access->index, simd.step);
      if (!last) {
        reason = where + "a non-constant factor";
      } else if (*last > 1 || *last < -1) {
        reason = where + std::to_string(*last) + " elements";
      }
    });
  }
  return reason;
}

/// True when `nest` holds a standalone `#pragma omp simd` (the one kind
/// --instrument leaves: it drops the ` simd` of every combined pragma).
[[nodiscard]] bool carries_simd(const Stmt& nest) {
  bool found = false;
  for_each_stmt(nest, [&](const Stmt& s) {
    const auto* pragma = stmt_cast<PragmaStmt>(&s);
    found = found || (pragma != nullptr &&
                      pragma->text.rfind("#pragma omp simd", 0) == 0);
  });
  return found;
}

/// Inserts `#pragma scop` / `#pragma endscop` around each candidate loop.
void mark_scops(TranslationUnit& tu,
                const std::vector<ScopCandidate>& candidates) {
  for (const ScopCandidate& candidate : candidates) {
    FunctionDecl* fn = tu.find_function(candidate.function->name);
    if (fn == nullptr || !fn->body) continue;
    CompoundStmt* block = find_owning_compound(*fn->body, candidate.loop);
    if (block == nullptr) continue;
    for (std::size_t i = 0; i < block->stmts.size(); ++i) {
      if (block->stmts[i].get() != candidate.loop) continue;
      block->stmts.insert(block->stmts.begin() + i + 1,
                          std::make_unique<PragmaStmt>("#pragma endscop"));
      block->stmts.insert(block->stmts.begin() + i,
                          std::make_unique<PragmaStmt>("#pragma scop"));
      break;
    }
  }
}

/// Removes the scop marker pragmas again (the polyhedral step consumes
/// candidates directly; the markers are the PC-CC artifact).
void scrub_scop_markers(Stmt& s) {
  if (auto* block = stmt_cast<CompoundStmt>(&s)) {
    for (auto it = block->stmts.begin(); it != block->stmts.end();) {
      const auto* pragma = stmt_cast<PragmaStmt>(it->get());
      if (pragma != nullptr && (pragma->text == "#pragma scop" ||
                                pragma->text == "#pragma endscop")) {
        it = block->stmts.erase(it);
      } else {
        scrub_scop_markers(**it);
        ++it;
      }
    }
    return;
  }
  switch (s.kind()) {
    case StmtKind::If: {
      auto& n = static_cast<IfStmt&>(s);
      scrub_scop_markers(*n.then_stmt);
      if (n.else_stmt) scrub_scop_markers(*n.else_stmt);
      return;
    }
    case StmtKind::For: {
      auto& n = static_cast<ForStmt&>(s);
      if (n.body) scrub_scop_markers(*n.body);
      return;
    }
    case StmtKind::While:
      scrub_scop_markers(*static_cast<WhileStmt&>(s).body);
      return;
    case StmtKind::DoWhile:
      scrub_scop_markers(*static_cast<DoWhileStmt&>(s).body);
      return;
    default:
      return;
  }
}

void unmark_scops(TranslationUnit& tu) {
  for (FunctionDecl* fn : tu.functions()) {
    if (fn->body) scrub_scop_markers(*fn->body);
  }
}

// ---- Adjacent sibling-loop fusion ----------------------------------------

/// Renames every identifier `from` to `to` in an expression/statement
/// subtree (used to merge the second loop's body onto the first loop's
/// iterator; callers have already rejected shadowing and capture).
template <typename Node>
void rename_identifier(Node& node, const std::string& from,
                       const std::string& to) {
  for_each_expr(node, [&](Expr& sub) {
    auto* ident = expr_cast<IdentExpr>(&sub);
    if (ident != nullptr && ident->name == from) ident->name = to;
  });
}

/// Structural equality of two loop-header expressions modulo renaming
/// `rename_from` (in `b`) to `rename_to`. Conservative: only the shapes a
/// canonical loop header uses (literals, identifiers, unary/binary/assign
/// operators); anything else compares unequal.
[[nodiscard]] bool headers_match(const Expr* a, const Expr* b,
                                 const std::string& rename_from,
                                 const std::string& rename_to) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ExprKind::IntLiteral:
      return static_cast<const IntLiteralExpr&>(*a).value ==
             static_cast<const IntLiteralExpr&>(*b).value;
    case ExprKind::Ident: {
      const std::string& nb = static_cast<const IdentExpr&>(*b).name;
      return static_cast<const IdentExpr&>(*a).name ==
             (nb == rename_from ? rename_to : nb);
    }
    case ExprKind::Unary: {
      const auto& ua = static_cast<const UnaryExpr&>(*a);
      const auto& ub = static_cast<const UnaryExpr&>(*b);
      return ua.op == ub.op && headers_match(ua.operand.get(),
                                             ub.operand.get(), rename_from,
                                             rename_to);
    }
    case ExprKind::Binary: {
      const auto& ba = static_cast<const BinaryExpr&>(*a);
      const auto& bb = static_cast<const BinaryExpr&>(*b);
      return ba.op == bb.op &&
             headers_match(ba.lhs.get(), bb.lhs.get(), rename_from,
                           rename_to) &&
             headers_match(ba.rhs.get(), bb.rhs.get(), rename_from,
                           rename_to);
    }
    case ExprKind::Assign: {
      const auto& aa = static_cast<const AssignExpr&>(*a);
      const auto& ab = static_cast<const AssignExpr&>(*b);
      return aa.op == ab.op &&
             headers_match(aa.lhs.get(), ab.lhs.get(), rename_from,
                           rename_to) &&
             headers_match(aa.rhs.get(), ab.rhs.get(), rename_from,
                           rename_to);
    }
    default:
      return false;
  }
}

/// True when `s` declares `name` anywhere (shadowing hazard for the
/// rename-based fusion merge).
[[nodiscard]] bool declares_identifier(const Stmt& s,
                                       const std::string& name) {
  bool found = false;
  for_each_stmt(s, [&](const Stmt& sub) {
    const auto* decl = stmt_cast<DeclStmt>(&sub);
    if (decl == nullptr) return;
    for (const VarDecl& d : decl->decls) {
      if (d.name == name) found = true;
    }
  });
  return found;
}

/// Appends (a clone of) `extra` to `loop`'s body, flattening compounds.
void append_to_body(ForStmt& loop, StmtPtr extra) {
  auto* block = stmt_cast<CompoundStmt>(loop.body.get());
  if (block == nullptr) {
    auto wrapper = std::make_unique<CompoundStmt>();
    if (loop.body) wrapper->stmts.push_back(std::move(loop.body));
    loop.body = std::move(wrapper);
    block = stmt_cast<CompoundStmt>(loop.body.get());
  }
  if (auto* extra_block = stmt_cast<CompoundStmt>(extra.get())) {
    for (StmtPtr& child : extra_block->stmts) {
      block->stmts.push_back(std::move(child));
    }
  } else {
    block->stmts.push_back(std::move(extra));
  }
}

/// Copies what schedule_region decided into the scop's report.
void record_region_schedule(const poly::RegionSchedule& rs,
                            ScopReport& report) {
  report.parallelized = !rs.parallel_loops.empty();
  report.parallel_loops = rs.parallel_loops.size();
  report.fissioned = rs.fissioned;
  report.fission_groups = rs.groups;
  report.fission_parallel_groups = rs.parallel_groups;
  report.privatized = rs.privatized;
  report.schedule_clause = rs.schedule_clause;
  report.guards_folded = rs.guards_folded;
}

}  // namespace

ChainArtifacts run_pure_chain(const std::string& source,
                              const ChainOptions& options) {
  ChainArtifacts artifacts;
  DiagnosticEngine& diags = artifacts.diagnostics;

  // ---- PC-PrePro ----------------------------------------------------------
  StrippedSource stripped = strip_system_includes(source);
  artifacts.stripped = stripped.text;

  // ---- GCC-E (mini) -------------------------------------------------------
  MiniPreprocessor cpp(diags);
  for (const auto& [name, content] : options.virtual_includes) {
    cpp.add_include_file(name, content);
  }
  for (const auto& [name, value] : options.defines) {
    cpp.define(name, value);
  }
  artifacts.preprocessed = cpp.preprocess(stripped.text);
  if (diags.has_errors()) return artifacts;

  // ---- PC-CC: parse + purity verification + scop detection ----------------
  SourceBuffer buffer =
      SourceBuffer::from_string(artifacts.preprocessed, "<chain>");
  TranslationUnit tu = parse(buffer, diags);
  if (diags.has_errors()) return artifacts;

  // Affine `while` loops canonicalize into `for` before anything looks at
  // loop structure, so they SCoP-mark and parallelize like their `for`
  // twins (region extraction's `while`-as-for leg).
  artifacts.canonicalized_whiles = canonicalize_while_loops(tu);

  // Extension pre-pass (§3.3 future work): inline expression-bodied pure
  // functions before verification + scop detection. A scratch purity run
  // supplies the hashset; the authoritative run happens below on the
  // (possibly) rewritten AST.
  if (options.inline_pure_expressions) {
    DiagnosticEngine scratch;
    const SymbolTable scratch_symbols = SymbolTable::build(tu, scratch);
    PurityOptions scratch_options = options.purity;
    scratch_options.listing5_violation_is_error = false;
    if (options.infer_purity) {
      // Inferred-pure functions are inlining candidates too.
      const InferenceResult pre_inline =
          infer_purity(tu, scratch_symbols, options.purity);
      scratch_options.assume_pure = pre_inline.inferred_pure;
    }
    PurityChecker scratch_checker(tu, scratch_symbols, scratch,
                                  scratch_options);
    const PurityResult scratch_purity = scratch_checker.check();
    artifacts.inlined_calls =
        inline_pure_expression_functions(tu, scratch_purity.pure_functions,
                                         scratch_symbols);
  }

  const SymbolTable symbols = SymbolTable::build(tu, diags);
  PurityOptions purity_options = options.purity;
  // The full per-function purity trail is computed unconditionally for the
  // report (declared / inferable / rejected with reason + location); it
  // only *drives* the transformation under --infer-pure, where it also
  // seeds the checker's hashset.
  artifacts.purity_trail = infer_purity(tu, symbols, options.purity);
  if (options.infer_purity) {
    // Interprocedural inference over the (possibly inlined) AST seeds the
    // checker: unannotated-but-provably-pure functions join the hashset,
    // and their transitive global reads feed the Listing-5 rule.
    artifacts.inference = artifacts.purity_trail;
    purity_options.assume_pure = artifacts.inference.inferred_pure;
    purity_options.assumed_global_reads =
        artifacts.inference.inferred_global_reads();
  }
  PurityChecker checker(tu, symbols, diags, purity_options);
  const PurityResult purity = checker.check();
  // The trail takes annotations on trust; a definition the verifier
  // refused is rejected, with its first error as the reason.
  for (const auto& [name, error] : purity.rejected) {
    const auto fn = artifacts.purity_trail.functions.find(name);
    if (fn == artifacts.purity_trail.functions.end()) continue;
    fn->second.pure = false;
    fn->second.reason = error;
  }
  if (diags.has_errors()) return artifacts;

  // Memoizability classification runs on the pre-transformation AST: it
  // re-derives effect summaries through `symbols`, whose resolutions are
  // keyed on the original nodes. The call-site rewrite happens after the
  // polyhedral step so reinserted calls inside generated nests are
  // rewritten too.
  if (options.memoize) {
    artifacts.memoization = classify_memoizable(
        tu, symbols, purity.pure_functions, purity_options,
        /*cost_gate=*/!options.memoize_all);
  }

  mark_scops(tu, purity.scop_loops);
  artifacts.marked = print_c(tu, PrintOptions{PureHandling::Keep, 2});
  unmark_scops(tu);

  // Local pointer bases, once per function on the AST `symbols` resolves
  // (before substitution). A local set from a function that returns fresh
  // memory is an object of its own.
  std::map<std::string, LocalPointers> local_pointers;
  std::set<std::string> fresh_callees;
  for (const auto& [name, fn] : symbols.functions()) {
    if (!fn->is_definition()) continue;
    const LocalPointers& pointers =
        local_pointers.try_emplace(name, *fn, *symbols.scope_for(*fn))
            .first->second;
    if (pointers.returns_fresh()) fresh_callees.insert(name);
  }
  std::map<std::string, PointerBases> pointer_bases;
  for (const auto& [name, pointers] : local_pointers) {
    pointer_bases.emplace(name, pointers.bases(fresh_callees));
  }

  // Which callees run a loop, for the default mode's simd gate (taken on
  // the AST the nests call into, before substitution hides their calls).
  const std::map<std::string, LoopWitness> callee_loops =
      options.mode == TransformMode::Pluto && options.parallelize
          ? loop_witnesses(CallGraph::build(tu))
          : std::map<std::string, LoopWitness>{};

  // ---- polycc: substitution + polyhedral transformation -------------------
  std::size_t placeholder_counter = 0;
  std::vector<ScopCandidate> scop_candidates = purity.scop_loops;
  std::vector<std::vector<SubstitutedCall>> all_substitutions;
  for (const ScopCandidate& candidate : scop_candidates) {
    auto* loop = const_cast<ForStmt*>(candidate.loop);
    all_substitutions.push_back(substitute_pure_calls(
        *loop, purity.pure_functions, placeholder_counter));
  }
  artifacts.substituted = print_c(tu, PrintOptions{PureHandling::Keep, 2});

  // Loop fusion: adjacent sibling scop nests with structurally identical
  // headers merge into one loop when the fused outer loop is still
  // parallel — one parallel region (and one pass over shared inputs)
  // instead of two. Decisions, taken or rejected, go to the report.
  std::vector<std::size_t> fused_counts(scop_candidates.size(), 0);
  if (options.parallelize) {
    for (std::size_t i = 0; i + 1 < scop_candidates.size();) {
      const ScopCandidate& first = scop_candidates[i];
      const ScopCandidate& second = scop_candidates[i + 1];
      auto* loop1 = const_cast<ForStmt*>(first.loop);
      auto* loop2 = const_cast<ForStmt*>(second.loop);
      FusionDecision decision;
      decision.function = first.function->name;
      decision.first_line = loop1->loc.line;
      decision.first_column = loop1->loc.column;
      decision.second_line = loop2->loc.line;
      decision.second_column = loop2->loc.column;

      // Adjacency: both nests directly consecutive in one compound of the
      // same function (anything between them — even a declaration — keeps
      // them apart). Non-adjacent pairs are not candidates at all.
      FunctionDecl* fn = first.function == second.function
                             ? tu.find_function(first.function->name)
                             : nullptr;
      CompoundStmt* block =
          fn != nullptr && fn->body
              ? find_owning_compound(*fn->body, loop1)
              : nullptr;
      bool adjacent = false;
      std::size_t slot2 = 0;
      if (block != nullptr) {
        for (std::size_t k = 0; k + 1 < block->stmts.size(); ++k) {
          if (block->stmts[k].get() == loop1 &&
              block->stmts[k + 1].get() == loop2) {
            adjacent = true;
            slot2 = k + 1;
            break;
          }
        }
      }
      if (!adjacent) {
        ++i;
        continue;
      }

      const auto reject = [&](std::string reason) {
        decision.fused = false;
        decision.reason = std::move(reason);
        artifacts.fusion_decisions.push_back(std::move(decision));
        ++i;
      };

      // Header compatibility: both iterators block-scoped (decl-init,
      // single declarator), identical bounds/step modulo renaming the
      // second iterator onto the first.
      const auto* decl1 = stmt_cast<DeclStmt>(loop1->init.get());
      const auto* decl2 = stmt_cast<DeclStmt>(loop2->init.get());
      if (decl1 == nullptr || decl2 == nullptr ||
          decl1->decls.size() != 1 || decl2->decls.size() != 1) {
        reject("iterator is not a block-scoped declaration");
        continue;
      }
      const std::string n1 = decl1->decls[0].name;
      const std::string n2 = decl2->decls[0].name;
      if (!headers_match(decl1->decls[0].init.get(),
                         decl2->decls[0].init.get(), n2, n1) ||
          !headers_match(loop1->cond.get(), loop2->cond.get(), n2, n1) ||
          !headers_match(loop1->inc.get(), loop2->inc.get(), n2, n1)) {
        reject("loop headers differ (bounds or step)");
        continue;
      }
      if (n1 != n2 && loop2->body != nullptr &&
          references_identifier(*loop2->body, n1)) {
        reject("iterator rename would capture '" + n1 + "'");
        continue;
      }
      if (loop2->body != nullptr &&
          (declares_identifier(*loop2->body, n1) ||
           declares_identifier(*loop2->body, n2))) {
        reject("second body redeclares the iterator");
        continue;
      }

      // Volatile accesses keep their order: no fusion reorders them.
      const FunctionScopeInfo& scope = *symbols.scope_for(*fn);
      const SerialVerdict touched = volatile_access(
          *loop1, scope, {&all_substitutions[i]});
      const SerialVerdict touched2 = volatile_access(
          *loop2, scope, {&all_substitutions[i + 1]});
      if (!touched.reason.empty() || !touched2.reason.empty()) {
        reject(!touched.reason.empty() ? touched.reason : touched2.reason);
        continue;
      }

      // Trial merge on clones: the fused nest must extract as one scop
      // and its outer loop must stay parallel.
      std::size_t boundary = 0;
      {
        poly::ExtractionResult r1 = poly::extract_scop(*loop1);
        if (!r1.ok()) {
          reject("first nest no longer extracts: " + r1.failure_reason);
          continue;
        }
        for (const poly::ScopStatement& stmt : r1.scop->statements) {
          boundary = std::max(boundary, stmt.position + 1);
        }
      }
      auto trial = StmtPtr(loop1->clone());
      auto* trial_loop = stmt_cast<ForStmt>(trial.get());
      StmtPtr body2 = loop2->body ? loop2->body->clone() : nullptr;
      if (body2) rename_identifier(*body2, n2, n1);
      append_to_body(*trial_loop, std::move(body2));
      poly::ExtractionResult fused = poly::extract_scop(*trial_loop);
      if (!fused.ok()) {
        reject("fused nest is not a SCoP: " + fused.failure_reason);
        continue;
      }
      // The fused body may now write what one nest's pure call reads —
      // a Listing-5 conflict the checker never saw, hidden from the
      // dependences by the call's placeholder.
      const SerialVerdict alias = rebase_local_pointers(
          *fused.scop, scope, pointer_bases.at(fn->name),
          {&all_substitutions[i], &all_substitutions[i + 1]},
          purity_options.assumed_global_reads);
      if (!alias.reason.empty()) {
        reject(alias.reason);
        continue;
      }
      const std::vector<poly::Dependence> deps =
          poly::analyze_dependences(*fused.scop);
      if (!poly::loop_is_parallel(deps, 0)) {
        bool crossing = false;
        const poly::Dependence* blocker =
            poly::fusion_blocker(*fused.scop, deps, boundary, &crossing);
        if (blocker != nullptr && crossing) {
          reject("fusion-preventing dependence on '" + blocker->array +
                 "'");
        } else if (blocker != nullptr) {
          reject("a loop is already serial (dependence on '" +
                 blocker->array + "')");
        } else {
          reject("fused outer loop is not parallel");
        }
        continue;
      }

      // Commit: merge the real second body (renamed) into the first loop,
      // drop the second loop, and fold its substituted calls (their saved
      // originals reference the old iterator) into the first candidate.
      if (loop2->body) rename_identifier(*loop2->body, n2, n1);
      append_to_body(*loop1, std::move(loop2->body));
      block->stmts.erase(block->stmts.begin() +
                         static_cast<std::ptrdiff_t>(slot2));
      for (SubstitutedCall& call : all_substitutions[i + 1]) {
        if (call.original) rename_identifier(*call.original, n2, n1);
        all_substitutions[i].push_back(std::move(call));
      }
      all_substitutions.erase(all_substitutions.begin() +
                              static_cast<std::ptrdiff_t>(i + 1));
      fused_counts[i] += 1 + fused_counts[i + 1];
      fused_counts.erase(fused_counts.begin() +
                         static_cast<std::ptrdiff_t>(i + 1));
      scop_candidates.erase(scop_candidates.begin() +
                            static_cast<std::ptrdiff_t>(i + 1));
      decision.fused = true;
      artifacts.fusion_decisions.push_back(std::move(decision));
      // Stay at i: a third adjacent sibling may fuse into the same loop.
    }
  }

  for (std::size_t idx = 0; idx < scop_candidates.size(); ++idx) {
    const ScopCandidate& candidate = scop_candidates[idx];
    std::vector<SubstitutedCall>& calls = all_substitutions[idx];
    auto* loop = const_cast<ForStmt*>(candidate.loop);

    ScopReport report;
    report.function = candidate.function->name;
    report.line = candidate.loop->loc.line;
    report.column = candidate.loop->loc.column;
    report.contains_calls = candidate.contains_calls;
    report.substituted_calls = calls.size();
    report.fused_loops = fused_counts[idx];
    for (const SubstitutedCall& call : calls) {
      if (artifacts.inference.inferred_pure.count(call.callee) != 0) {
        ++report.inferred_calls;
      }
    }

    const auto undo = [&] {
      reinsert_pure_calls(*loop, calls);
      artifacts.scops.push_back(report);
    };

    poly::IteratorSubstitution iter_subst;
    StmtPtr generated;
    std::vector<std::string> scop_iterators;
    bool region = false;
    bool may_alias = false;
    try {
      poly::ExtractionResult extraction = poly::extract_scop(*loop);
      if (!extraction.ok()) {
        report.failure_reason = extraction.failure_reason;
        report.failure_loc = extraction.failure_loc;
        undo();
        continue;
      }
      poly::Scop& scop = *extraction.scop;
      report.extracted = true;
      report.depth = scop.depth();
      report.delinearized = scop.delinearized;
      region = scop.region_shaped;
      report.region = region;

      const FunctionDecl* owner =
          tu.find_function(candidate.function->name);
      for (const std::vector<std::string>* names :
           {&scop.iterators, &scop.parameters}) {
        for (const std::string& name : *names) {
          if (owner == nullptr ||
              !every_declaration(*owner, symbols, name, signed_integer)) {
            scop.opaque_names.push_back(name);
          }
        }
      }
      std::vector<std::string> header_names = scop.iterators;
      header_names.insert(header_names.end(), scop.parameters.begin(),
                          scop.parameters.end());
      const std::optional<OffTypeBound> off_type =
          owner != nullptr
              ? off_type_bound(*loop, header_names, *owner, symbols)
              : std::nullopt;
      if (off_type) {
        report.failure_reason =
            off_type->type->is_floating()
                ? "loop bound reads floating-point '" + off_type->name +
                      "' (OpenMP loops need integer bounds)"
                : "loop header reads '" + off_type->name + "' of type '" +
                      off_type->type->to_string() +
                      "' (emitted loops bound only signed integers)";
        report.failure_loc = loop->loc;
        undo();
        continue;
      }

      // FP-reassociation gate: +/-/* on a non-integer accumulator only
      // stays a reduction under --fp-reductions (OpenMP's per-thread
      // partials reassociate the combination, changing rounding relative
      // to the serial loop). min/max are bit-exact in any order and
      // integer accumulators are associative for real, so both pass.
      if (!options.fp_reductions) {
        for (poly::ScopStatement& stmt : scop.statements) {
          if (stmt.reduction_op != poly::ReductionOp::Add &&
              stmt.reduction_op != poly::ReductionOp::Sub &&
              stmt.reduction_op != poly::ReductionOp::Mul) {
            continue;
          }
          if (owner != nullptr &&
              every_declaration(*owner, symbols, stmt.reduction_accumulator,
                                [](const Type* t) {
                                  return t != nullptr && t->is_integer();
                                })) {
            continue;
          }
          scop.reduction_notes.push_back(
              "reduction on '" + stmt.reduction_accumulator +
              "' demoted: accumulator is not integer "
              "(floating-point reduction reassociates; "
              "enable with --fp-reductions)");
          stmt.reduction_op = poly::ReductionOp::None;
          stmt.reduction_accumulator.clear();
        }
      }
      for (const poly::ScopStatement& stmt : scop.statements) {
        if (stmt.reduction_op == poly::ReductionOp::None) continue;
        const std::string op =
            stmt.reduction_op == poly::ReductionOp::Call
                ? stmt.reduction_callee
                : poly::reduction_token(stmt.reduction_op);
        report.reductions.push_back(op + ":" +
                                    stmt.reduction_accumulator);
      }
      report.reduction_notes = scop.reduction_notes;

      if (owner != nullptr) {
        const SerialVerdict touched =
            volatile_access(*loop, *symbols.scope_for(*owner), {&calls});
        if (!touched.reason.empty()) {
          report.failure_reason = touched.reason;
          report.failure_loc = touched.loc;
          undo();
          continue;
        }
        const std::string escapee =
            escaping_iterator_use(scop, *owner, *loop, symbols);
        if (!escapee.empty()) {
          report.failure_reason =
              "iterator '" + escapee +
              "' lives outside the nest and is read after it "
              "(the transform would lose its final value)";
          report.failure_loc = loop->loc;
          undo();
          continue;
        }

        // Local pointers: accesses through a resolved one are rebased onto
        // the object it points into; a write the model still cannot vouch
        // for keeps the nest serial, in source order (may-alias).
        const SerialVerdict alias =
            rebase_local_pointers(scop, *symbols.scope_for(*owner),
                                  pointer_bases.at(owner->name), {&calls},
                                  purity_options.assumed_global_reads);
        if (!alias.reason.empty()) {
          may_alias = true;
          report.failure_reason = alias.reason;
          report.failure_loc = alias.loc;
        }
      }

      std::vector<poly::Dependence> deps =
          poly::analyze_dependences(scop);
      report.dependences = deps.size();
      if (may_alias && region) {
        // Region nests are only ever annotated: left as written.
        undo();
        continue;
      }

      // Scalar privatization candidates: the polyhedral layer's
      // structural written-before-read rule, filtered by what only the
      // chain can see — the scalar must be function-local (not a global)
      // and dead after the nest (privatizing a live-out scalar would
      // lose its final value, exactly like an escaping iterator).
      std::vector<std::string> privatizable;
      if (owner != nullptr && options.parallelize) {
        std::vector<std::string> candidates;
        for (std::size_t j = 0; j < scop.depth(); ++j) {
          for (std::string& name : poly::privatizable_scalars(scop, j)) {
            if (std::find(candidates.begin(), candidates.end(), name) ==
                candidates.end()) {
              candidates.push_back(std::move(name));
            }
          }
        }
        for (const std::string& name : candidates) {
          if (symbols.find_global(name) != nullptr) continue;
          // Declared inside the nest: already per-iteration storage, and
          // not nameable from the pragma's scope.
          if (declares_identifier(*loop, name)) continue;
          bool found = false;
          bool in_loop = false;
          const IterFate fate =
              owner->body ? fate_after_nest(*owner->body,
                                            static_cast<const Stmt*>(loop),
                                            name, found, in_loop)
                          : IterFate::Read;
          if (!found || in_loop || fate == IterFate::Read) continue;
          privatizable.push_back(name);
        }
      }

      poly::CodegenOptions cg;
      cg.parallelize = options.parallelize && !may_alias;
      cg.tile = options.tile && !may_alias;
      cg.tile_size = options.tile_size;
      cg.schedule = options.schedule;
      // PluTo-SICA vectorizes every innermost parallel loop; the default
      // mode only a parallel nest whose callees are loop-free and whose
      // simd loops walk every access with a unit stride.
      const bool gate_simd =
          options.mode == TransformMode::Pluto && cg.parallelize;
      const std::string callee_blocker =
          gate_simd ? simd_blocker(*loop, calls, callee_loops,
                                   artifacts.memoization.memoizable)
                    : std::string();
      std::string simd_withheld;
      std::vector<SimdLoop> simd_judged;
      const auto decide_simd = [&](const std::vector<SimdLoop>& loops) {
        simd_judged = loops;
        simd_withheld = callee_blocker;
        if (gate_simd && simd_withheld.empty()) {
          simd_withheld = stride_blocker(*loop, calls, loops);
        }
        cg.simd = options.mode == TransformMode::PlutoSica ||
                  (cg.parallelize && simd_withheld.empty());
      };
      // Region codegen vectorizes leaf loops, which keep their source
      // iterators and steps.
      const auto leaf_loops = [&] {
        std::vector<bool> parent(scop.depth(), false);
        for (const std::size_t up : scop.loop_parents) {
          if (up != poly::Scop::npos) parent[up] = true;
        }
        std::vector<SimdLoop> leaves;
        for (std::size_t j = 0; j < scop.depth(); ++j) {
          if (parent[j]) continue;
          leaves.push_back(SimdLoop{
              "'" + scop.iterators[j] + "'",
              {{scop.iterators[j],
                j < scop.strides.size() ? scop.strides[j] : 1}}});
        }
        return leaves;
      };
      std::size_t simd_loops = 0;

      if (region) {
        // Region path (guards / imperfect nests / iterator-dependent
        // strided origins): no reordering — reschedule the nest at the
        // statement level (parallel pragmas, fission by dependence SCC,
        // scalar privatization). Iterators keep their source names, so
        // the reinserted calls need no substitution.
        poly::RegionSchedule rs;
        decide_simd(leaf_loops());
        generated = poly::schedule_region(scop, deps, cg, privatizable,
                                          &rs);
        if (generated) record_region_schedule(rs, report);
        simd_loops = rs.simd_loops;
      } else {
        // Privatized scalars' dependences are exempt from schedule
        // legality (each thread gets its own copy); generate_code emits
        // the matching private(...) clause.
        const std::vector<std::string> priv0 = [&] {
          std::vector<std::string> out;
          for (const std::string& name :
               poly::privatizable_scalars(scop, 0)) {
            if (std::find(privatizable.begin(), privatizable.end(),
                          name) != privatizable.end()) {
              out.push_back(name);
            }
          }
          return out;
        }();
        poly::mark_private_dependences(deps, priv0);
        cg.privatized = priv0;

        // A may-alias nest keeps its source order: identity schedule, no
        // tiling band, no parallel dimension.
        const poly::Transform transform =
            may_alias ? poly::Transform{poly::IntMat::identity(scop.depth()),
                                        0,
                                        std::vector<bool>(scop.depth(),
                                                          false)}
                      : poly::compute_schedule(scop, deps);
        report.skewed = !transform.is_identity();
        scop_iterators = scop.iterators;

        // The innermost point loop takes the simd pragma; one of its trips
        // moves source iterator j by strides[j] * Tinv(j, d - 1).
        {
          const std::size_t d = scop.depth();
          const poly::IntMat inverse = transform.matrix.inverse_unimodular();
          SimdLoop innermost{"", {}};
          for (std::size_t j = 0; j < d; ++j) {
            const std::int64_t moved =
                (j < scop.strides.size() ? scop.strides[j] : 1) *
                inverse.at(j, d - 1);
            if (moved == 0) continue;
            innermost.name = innermost.step.empty()
                                 ? "'" + scop.iterators[j] + "'"
                                 : "'t" + std::to_string(d) + "'";
            innermost.step[scop.iterators[j]] = moved;
          }
          decide_simd({innermost});
        }
        // A tile keeps what the nest reads in cache; a nest that reads no
        // array (a write-only fill) only gains tile loops and short inner
        // trips. Substituted calls may read memory the model cannot see.
        const bool tiles = cg.tile && transform.band_size >= 2 &&
                           options.tile_size > 1;
        if (tiles && calls.empty() &&
            std::none_of(scop.statements.begin(), scop.statements.end(),
                         [](const poly::ScopStatement& stmt) {
                           return std::any_of(
                               stmt.accesses.begin(), stmt.accesses.end(),
                               [](const poly::Access& a) {
                                 return a.kind == poly::AccessKind::Read &&
                                        !a.subscripts.empty();
                               });
                         })) {
          cg.tile = false;
          report.tile_withheld =
              "the nest reads no array (a tile would keep nothing in cache)";
        }

        generated = poly::generate_code(scop, transform, cg, &iter_subst,
                                        &report.collapse,
                                        &report.schedule_clause,
                                        &simd_loops);
        if (generated) {
          report.parallelized = cg.parallelize && transform.any_parallel();
          if (report.parallelized) {
            report.parallel_loops = 1;
            report.privatized = priv0;
          }
          report.tiled = cg.tile && transform.band_size >= 2 &&
                         options.tile_size > 1;
        }
        if (!report.parallelized && cg.parallelize) {
          // The hyperplane path left the nest serial: fall back to
          // statement-level fission — a partially parallel nest splits
          // into a serial loop plus a parallel loop instead of
          // serializing whole. Iterators keep their names (no
          // substitution).
          poly::RegionSchedule rs;
          decide_simd(leaf_loops());
          StmtPtr fissioned = poly::schedule_region(scop, deps, cg,
                                                    privatizable, &rs);
          if (fissioned && rs.fissioned && !rs.parallel_loops.empty()) {
            generated = std::move(fissioned);
            scop_iterators.clear();
            iter_subst = poly::IteratorSubstitution{};
            record_region_schedule(rs, report);
            report.skewed = false;
            report.tiled = false;
            simd_loops = rs.simd_loops;
          }
        }
      }
      if (generated && simd_loops > 0) {
        report.simd = cg.simd;
        if (!cg.simd) report.simd_withheld = simd_withheld;
      } else if (generated && report.parallelized) {
        // No loop the nest vectorizes is dependence-free.
        std::string names;
        for (const SimdLoop& judged : simd_judged) {
          names += (names.empty() ? "" : ", ") + judged.name;
        }
        report.simd_withheld =
            simd_judged.size() == 1
                ? "innermost loop " + names + " carries a dependence"
                : "innermost loops " + names + " carry a dependence";
      }
    } catch (const ArithmeticOverflow&) {
      // Exact analysis would overflow int64 (gigantic bounds or
      // coefficients). The safe answer is "don't transform".
      report.failure_reason = "analysis overflow (bounds too large)";
      report.failure_loc = loop->loc;
      undo();
      continue;
    }
    if (!generated) {
      report.failure_loc = loop->loc;
      if (!region) {
        report.failure_reason = "codegen could not derive loop bounds";
      } else if (options.parallelize) {
        report.failure_reason =
            "no dependence-free loop in region (stays serial)";
        for (const std::string& note : report.reduction_notes) {
          report.failure_reason += "; " + note;
        }
      } else {
        report.failure_reason =
            "region nest left untouched (no parallelization requested)";
      }
      undo();
      continue;
    }

    // Reinsert the substituted calls inside the generated nest, then map
    // their arguments onto the new iterators (Listing 8: dot(...A[t1]...)).
    for (SubstitutedCall& call : calls) {
      apply_iterator_substitution(call.original, scop_iterators, iter_subst);
    }
    reinsert_pure_calls(*generated, calls);

    // Swap the generated nest into the function body.
    FunctionDecl* fn = tu.find_function(candidate.function->name);
    StmtPtr* slot = fn != nullptr && fn->body
                        ? find_stmt_slot(*fn->body, candidate.loop)
                        : nullptr;
    if (slot == nullptr) {
      report.failure_reason = "could not locate loop in function body";
      report.failure_loc = loop->loc;
      report.parallelized = false;
      report.tiled = false;
      report.collapse = 0;
      report.simd = false;
      report.simd_withheld.clear();
      report.tile_withheld.clear();
      undo();
      continue;
    }
    *slot = std::move(generated);
    // A may-alias nest was only reprinted in source order: it reports
    // untransformed, with its located reason.
    report.transformed = !may_alias;
    if (options.instrument && report.parallelized) {
      // Wrap the parallel nest in a timing envelope and plant the
      // per-worker chunk tally in every parallel loop body. The region's
      // counter struct + registrar are emitted into the prelude below.
      // A serial nest (say, a loop inside a pure function, run once per
      // call) is left bare: timing it would cost more than its body and
      // flood the trace ring, and it has no chunks to tally.
      // The index doubles as the region's stable id: it is stamped into
      // the report entry AND emitted into the region struct, so trace
      // events join back to compiler decisions by args.region_id.
      report.region_id =
          static_cast<std::int64_t>(artifacts.instrumented_regions.size());
      // A tallied `parallel for simd` loop keeps only `parallel for`.
      if (instrument_region(*slot, artifacts.instrumented_regions.size()) !=
              0 &&
          !carries_simd(**slot)) {
        report.simd = false;
        report.simd_withheld =
            "--instrument tallies chunks in the parallel loop (OpenMP "
            "allows no thread query or atomic in a simd region)";
      }
      artifacts.instrumented_regions.push_back(
          report.function + ":" + std::to_string(report.line));
    }
    artifacts.scops.push_back(report);
  }

  artifacts.transformed = print_c(tu, PrintOptions{PureHandling::Keep, 2});

  // Extension: mark allocation-free verified pure functions for GCC's
  // __attribute__((pure)) in the lowered output. (malloc/calloc/free
  // users are excluded — the attribute's contract forbids observable
  // state changes.)
  if (options.emit_gcc_attributes) {
    for (FunctionDecl* fn : tu.functions()) {
      if (!fn->is_pure || purity.pure_functions.count(fn->name) == 0) {
        continue;
      }
      bool allocates = false;
      if (fn->body) {
        for_each_call(*fn->body, [&](const CallExpr& call) {
          const std::string callee = call.callee_name();
          if (callee == "malloc" || callee == "calloc" || callee == "free") {
            allocates = true;
          }
        });
      }
      fn->annotate_gcc_pure = !allocates;
    }
  }

  // Memoization rewrite: route every call to a memoizable pure function
  // (inside generated nests and plain code alike) through its thunk. The
  // thunks themselves are emitted as text around the lowered program.
  std::set<std::string> memo_used;
  if (options.memoize && !artifacts.memoization.memoizable.empty()) {
    for (FunctionDecl* fn : tu.functions()) {
      if (!fn->body) continue;
      for_each_expr_slot(*fn->body, [&](ExprPtr& slot) -> bool {
        auto* call = expr_cast<CallExpr>(slot.get());
        if (call == nullptr) return false;
        const std::string name = call->callee_name();
        if (artifacts.memoization.memoizable.count(name) == 0) {
          return false;
        }
        expr_cast<IdentExpr>(call->callee.get())->name =
            memo_thunk_name(name);
        memo_used.insert(name);
        ++artifacts.memoized_calls;
        return false;  // descend: arguments may hold memoizable calls too
      });
    }
  }

  // ---- PC-PosPro: lower pure, restore system includes ---------------------
  const std::string lowered =
      print_c(tu, PrintOptions{PureHandling::Lower, 2});
  std::vector<std::string> extra;
  const auto add_include = [&extra](const char* include) {
    if (std::find(extra.begin(), extra.end(), include) == extra.end()) {
      extra.push_back(include);
    }
  };
  bool uses_omp = false;
  for (const ScopReport& r : artifacts.scops) {
    if (r.parallelized) uses_omp = true;
  }
  if (uses_omp) extra.push_back("#include <omp.h>");

  const bool instrumented = !artifacts.instrumented_regions.empty();
  // Memo counters exist only in --instrument builds: everywhere else no
  // one reads them, and gcc would compile them on every build.
  const bool memo_stats = !memo_used.empty() && options.instrument;
  std::string prelude = poly::codegen_prelude();
  std::string epilogue;
  if (memo_stats || instrumented) {
    // Both exit-time dumps (memo counters, instrument summaries) resolve
    // their destination through one purec_stats_out(), emitted first so
    // either runtime can reference it.
    add_include("#include <stdlib.h>");
    add_include("#include <stdio.h>");
    prelude += stats_sink_snippet();
  }
  if (!memo_used.empty()) {
    // Table + prototypes before the program (call sites reference the
    // thunks), definitions after it (they reference the wrapped functions
    // and the snapshot globals). pthread frees a thread's table when the
    // thread exits.
    add_include("#include <stdlib.h>");
    add_include("#include <pthread.h>");
    if (options.memoize_verify) {
      // Compiles full-key verification into the table; nothing turns it
      // off at run time. A verify record holds the widest key tuple among
      // this TU's thunks.
      std::size_t widest = 0;
      for (const std::string& name : memo_used) {
        widest = std::max(
            widest, memo_key_words(artifacts.memoization.functions.at(name)));
      }
      prelude += "#define PUREC_MEMO_VERIFY 1\n#define PUREC_MEMO_VWORDS " +
                 std::to_string(widest) + "u\n";
    }
    prelude += memo_runtime_prelude(memo_stats);
    for (const std::string& name : memo_used) {
      prelude +=
          memo_thunk_prototype(artifacts.memoization.functions.at(name));
    }
    for (const std::string& name : memo_used) {
      epilogue += "\n" + memo_thunk_definition(
                             artifacts.memoization.functions.at(name),
                             memo_stats);
    }
  }
  if (instrumented) {
    // Counter runtime + one region struct per instrumented nest; the
    // wrapped nests in `lowered` reference these by name.
    add_include("#include <time.h>");
    prelude += instrument_runtime_snippet();
    for (std::size_t i = 0; i < artifacts.instrumented_regions.size();
         ++i) {
      prelude += instrument_region_definition(
          i, artifacts.instrumented_regions[i]);
    }
  }
  artifacts.final_source = restore_system_includes(
      prelude + lowered + epilogue, stripped.system_includes, extra);
  artifacts.ok = !diags.has_errors();
  return artifacts;
}

}  // namespace purec
