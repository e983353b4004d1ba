// Where a function's local pointers point: the one analysis behind purity
// inference's write rules (effects.h), the §3.2 verifier's free() and
// memcpy/strtol rules (purity_checker.h) and the chain's alias resolution
// before dependence analysis (pure_chain.h).
//
// One walk over the body records every definition of every non-static
// local pointer: initializers, `=`, `op=`, `++`/`--`, and `&p`, after which
// a store through the alias (`*pp = x`, the end pointer a strtol-family
// call writes) may redefine p unseen. It also notes which names are
// reassigned, stepped or have their address taken. Two facts derive from
// those definitions:
//  * provenance — Heap (every source is a malloc/calloc result or a copy
//    of one: free() is legal), LocalStorage (function-local memory: writes
//    are invisible to other threads) or Foreign (may reach caller or
//    global memory);
//  * bases — fresh pointers (every definition allocates: an object of its
//    own), resolved pointers (element k of one object X: every definition
//    is `X`, `X + k`, `k + X`, `X - k` or `&X[k]`, k an integer constant)
//    and unresolved ones (may point into any object).
//
// Names key everything: shadowed locals conflate, which only lowers their
// provenance and leaves them unresolved. Pointer parameters, globals and
// block-scope statics are assumed to be distinct objects — nothing here
// checks that.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/decl.h"
#include "sema/symbols.h"

namespace purec {

/// Provenance lattice, strongest first; the join is the maximum.
enum class Provenance : std::uint8_t { Heap, LocalStorage, Foreign };

/// Where a resolved local pointer points: element `offset` of `root`.
struct PointerTarget {
  std::string root;
  std::int64_t offset = 0;
};

/// The chain's split of a function's non-static local pointers. Fresh
/// ones are objects of their own and appear in neither map.
struct PointerBases {
  std::map<std::string, PointerTarget> resolved;
  std::set<std::string> unresolved;
};

/// The analysis of one function. Keeps a reference to `scope`, which
/// must outlive it.
class LocalPointers {
 public:
  LocalPointers(const FunctionDecl& fn, const FunctionScopeInfo& scope);

  /// Provenance of local `name`: arrays are LocalStorage, statics and
  /// pointers without a recorded definition are Foreign.
  [[nodiscard]] Provenance of(const std::string& name) const;

  /// `value` names a local whose provenance is Heap: what free() may
  /// release (§3.2).
  [[nodiscard]] bool is_heap_local(const Expr* value) const;

  /// Could evaluating `value` yield a pointer into caller or global
  /// memory? Scalars never do; a load does when its slot can hold a
  /// pointer and its storage is not local.
  [[nodiscard]] bool may_be_foreign(const Expr* value) const;

  /// Some same-named block-scope declaration carries `static`.
  [[nodiscard]] bool is_static(const std::string& name) const {
    return statics_.count(name) != 0;
  }

  /// Every `return` yields a malloc/calloc result, directly or through a
  /// local whose every definition is one and that is only subscripted,
  /// dereferenced, assigned or returned: never copied, stored elsewhere or
  /// passed to a call.
  [[nodiscard]] bool returns_fresh() const { return returns_fresh_; }

  /// The fresh/resolved/unresolved split. A call to one of
  /// `fresh_callees` (functions that returns_fresh()) allocates like
  /// malloc for the fresh test; provenance stays malloc/calloc-only.
  [[nodiscard]] PointerBases bases(
      const std::set<std::string>& fresh_callees = {}) const;

 private:
  /// Provenance of a value; with `copy_of` set, joined with that local's.
  struct Source {
    Provenance direct = Provenance::Foreign;
    std::string copy_of;
  };

  /// One definition of a local pointer. A default one stands for stores
  /// through an escaped `&p`: Foreign, no target.
  struct Definition {
    Source source;
    /// The value is `X`, `X + k`, `k + X`, `X - k` or `&X[k]`.
    std::optional<PointerTarget> target;
    /// The value is (under casts) a call to this function.
    std::string callee;
  };

  /// The non-static local `e` names (under casts), or null.
  [[nodiscard]] const Symbol* local(const Expr* e) const;
  [[nodiscard]] Definition define(const Expr* value) const;
  [[nodiscard]] Source classify(const Expr* value) const;
  /// Local pointer `name` is declared once, never stepped, its address
  /// never taken, and every definition calls malloc, calloc or one of
  /// `fresh`.
  [[nodiscard]] bool is_fresh(const std::string& name,
                              const std::set<std::string>& fresh) const;
  void solve();

  const FunctionScopeInfo& scope_;
  std::map<std::string, std::vector<Definition>> defs_;
  std::map<std::string, Provenance> provenance_;
  std::set<std::string> statics_;
  /// Non-static pointer-typed block-scope declarations.
  std::set<std::string> pointers_;
  /// Declarations per name, parameters included.
  std::map<std::string, std::size_t> declared_;
  /// Names given a value by `=` / changed by op=, ++, -- or `&`.
  std::set<std::string> assigned_;
  std::set<std::string> unstable_;
  bool returns_fresh_ = false;
};

}  // namespace purec
