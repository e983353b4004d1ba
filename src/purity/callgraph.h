// Translation-unit call graph for the purity-inference subsystem.
//
// One node per function *name* seen anywhere in the unit: definitions,
// prototypes, and names that only appear at call sites (external callees
// like printf). Edges are caller -> callee, collected from every call
// expression in every definition. Indirect calls (through a function
// pointer) have no representable edge; EffectSummary::has_indirect_call
// is the authority that pessimizes them.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/decl.h"

namespace purec {

struct CallGraphNode {
  std::string name;
  /// The definition in this unit, or null for prototypes-only / externals.
  const FunctionDecl* definition = nullptr;
  /// First declaration (prototype or definition); null only for names that
  /// appear purely as call sites.
  const FunctionDecl* declaration = nullptr;
  /// Named callees, deduplicated, in deterministic (lexicographic) order.
  /// Indirect calls have no edge here (see the header comment).
  std::set<std::string> callees;

  /// No definition in this unit: the body is unknowable.
  [[nodiscard]] bool is_external() const noexcept {
    return definition == nullptr;
  }
};

class CallGraph {
 public:
  /// Builds the graph for every function in `tu`.
  [[nodiscard]] static CallGraph build(const TranslationUnit& tu);

  [[nodiscard]] const CallGraphNode* node(const std::string& name) const {
    const auto it = nodes_.find(name);
    return it == nodes_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::map<std::string, CallGraphNode>& nodes() const {
    return nodes_;
  }

  /// Strongly connected components of the *defined* subgraph (external
  /// nodes are excluded — they have no outgoing edges worth following), in
  /// callees-before-callers order: every edge leaving an SCC points at an
  /// SCC emitted earlier. This is the processing order the optimistic
  /// purity fixpoint wants, and it makes mutual recursion explicit (a pure
  /// pair lands in one two-element SCC).
  [[nodiscard]] std::vector<std::vector<const CallGraphNode*>> sccs() const;

 private:
  std::map<std::string, CallGraphNode> nodes_;
};

/// Where a call to a defined function runs a loop: `function` is the
/// function itself or a defined function it reaches whose body holds a
/// `for`, `while` or `do` statement; `recursive` marks a call cycle
/// instead (recursion repeats work the way a loop does).
struct LoopWitness {
  std::string function;
  bool recursive = false;
};

/// The loop witness of every defined function that reaches a loop or a
/// call cycle through its defined callees (itself included); functions
/// that reach neither are absent. External callees count as loop-free.
[[nodiscard]] std::map<std::string, LoopWitness> loop_witnesses(
    const CallGraph& graph);

}  // namespace purec
