// Name resolution for one translation unit: classifies every identifier
// occurrence as local / parameter / global / function, with its declared
// type. The purity checker and the polyhedral extractor both consume this.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/decl.h"
#include "support/diagnostics.h"

namespace purec {

enum class SymbolKind : std::uint8_t {
  Local,
  Param,
  Global,
  Function,
  Unknown,  // undeclared: extern function or external variable
};

struct Symbol {
  std::string name;
  SymbolKind kind = SymbolKind::Unknown;
  TypePtr type;                // null for Unknown / Function
  SourceLocation decl_loc;
  const FunctionDecl* function = nullptr;  // for kind == Function
};

/// The written-through "shape" of an lvalue: Bare (the variable itself) or
/// Through (subscript / deref / member — i.e. writes to referenced storage).
enum class LvalueShape : std::uint8_t { Bare, Through, Other };

[[nodiscard]] LvalueShape lvalue_shape(const Expr& e);

/// Per-function resolution map keyed by IdentExpr node. Nodes not present
/// resolve to Unknown.
class FunctionScopeInfo {
 public:
  [[nodiscard]] const Symbol* resolve(const IdentExpr& ident) const {
    const auto it = resolutions_.find(&ident);
    return it == resolutions_.end() ? nullptr : &it->second;
  }

  /// Root symbol of an lvalue expression: the variable ultimately written
  /// when assigning through the expression (e.g. `a[i].x` -> `a`,
  /// `*p` -> `p`). Returns nullptr for unresolvable shapes.
  [[nodiscard]] const Symbol* lvalue_root(const Expr& e) const;

  /// Static type of the slot an lvalue designates: the root's declared
  /// type peeled once per index/deref level. Null when unresolvable
  /// (members, casts) — callers must be conservative.
  [[nodiscard]] TypePtr slot_type(const Expr& lvalue) const;

  std::unordered_map<const IdentExpr*, Symbol> resolutions_;
};

/// Whole-TU symbol info.
class SymbolTable {
 public:
  /// Builds symbol info for every function definition in `tu`.
  /// Re-declaration errors are reported to `diags`.
  static SymbolTable build(const TranslationUnit& tu,
                           DiagnosticEngine& diags);

  [[nodiscard]] const FunctionScopeInfo* scope_for(
      const FunctionDecl& fn) const {
    const auto it = function_scopes_.find(&fn);
    return it == function_scopes_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const FunctionDecl* find_function(
      const std::string& n) const {
    const auto it = functions_.find(n);
    return it == functions_.end() ? nullptr : it->second;
  }

  [[nodiscard]] const GlobalVarDecl* find_global(const std::string& n) const {
    const auto it = globals_.find(n);
    return it == globals_.end() ? nullptr : it->second;
  }

  [[nodiscard]] const std::map<std::string, const FunctionDecl*>& functions()
      const {
    return functions_;
  }

 private:
  std::map<std::string, const FunctionDecl*> functions_;
  std::map<std::string, const GlobalVarDecl*> globals_;
  std::unordered_map<const FunctionDecl*, FunctionScopeInfo> function_scopes_;
};

}  // namespace purec
