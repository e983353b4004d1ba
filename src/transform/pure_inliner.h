// Extension (paper §3.3, future work): the chain normally hides pure
// calls behind tmpConst placeholders, which costs the transformer all
// knowledge of the arrays the function touches. For the simplest class of
// pure functions — a single `return <expression>;` — we can do better:
// inline the body at the call site. The polyhedral step then sees the real
// accesses, which (a) lets PluTo-SICA reason about the whole nest and
// (b) turns some Listing-5 hard errors (argument array also written) into
// precisely analyzed, correctly sequentialized loops.
//
// Enabled via ChainOptions::inline_pure_expressions (off by default: the
// default chain reproduces the paper byte-for-byte).
#pragma once

#include <cstddef>
#include <set>
#include <string>

#include "ast/decl.h"

namespace purec {

class SymbolTable;

/// Inlines calls to expression-bodied pure functions (body == exactly one
/// `return expr;`) everywhere in `tu`. Nested inlinable calls resolve via
/// a fixpoint with a recursion cap. An argument `(T)x` whose cast changes
/// only qualifiers of x's type (resolved through `symbols`, built on
/// `tu`) is substituted as plain `x`. Returns the number of call sites
/// inlined.
std::size_t inline_pure_expression_functions(
    TranslationUnit& tu, const std::set<std::string>& pure_functions,
    const SymbolTable& symbols);

}  // namespace purec
