#include "purity/callgraph.h"

#include <algorithm>
#include <optional>

#include "ast/walk.h"

namespace purec {

CallGraph CallGraph::build(const TranslationUnit& tu) {
  CallGraph graph;
  for (const FunctionDecl* fn : tu.functions()) {
    CallGraphNode& node = graph.nodes_[fn->name];
    node.name = fn->name;
    if (node.declaration == nullptr) node.declaration = fn;
    if (fn->is_definition()) node.definition = fn;
  }
  for (const FunctionDecl* fn : tu.functions()) {
    if (!fn->is_definition()) continue;
    CallGraphNode& node = graph.nodes_[fn->name];
    for_each_call(*fn->body, [&](const CallExpr& call) {
      const std::string callee = call.callee_name();
      if (callee.empty()) return;  // indirect: effects.cpp pessimizes
      node.callees.insert(callee);
      // Materialize the callee node even when the unit never declares it
      // (extern-by-use, like printf without a prototype).
      CallGraphNode& target = graph.nodes_[callee];
      if (target.name.empty()) target.name = callee;
    });
  }
  return graph;
}

namespace {

/// Iterative Tarjan over the defined subgraph. Emits SCCs in
/// callees-before-callers order (an SCC is completed only after every SCC
/// it reaches has been completed).
class TarjanScc {
 public:
  explicit TarjanScc(const std::map<std::string, CallGraphNode>& nodes)
      : nodes_(nodes) {}

  [[nodiscard]] std::vector<std::vector<const CallGraphNode*>> run() {
    for (const auto& [name, node] : nodes_) {
      if (node.is_external()) continue;
      if (index_.count(name) == 0) strongconnect(&node);
    }
    return std::move(components_);
  }

 private:
  struct Frame {
    const CallGraphNode* node;
    std::set<std::string>::const_iterator next;
  };

  void strongconnect(const CallGraphNode* root) {
    std::vector<Frame> frames;
    push_node(root, frames);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const CallGraphNode* v = frame.node;
      bool descended = false;
      while (frame.next != v->callees.end()) {
        const std::string& callee_name = *frame.next++;
        const auto it = nodes_.find(callee_name);
        if (it == nodes_.end() || it->second.is_external()) continue;
        const CallGraphNode* w = &it->second;
        if (index_.count(w->name) == 0) {
          push_node(w, frames);
          descended = true;
          break;
        }
        if (on_stack_.count(w->name) != 0) {
          lowlink_[v->name] = std::min(lowlink_[v->name], index_[w->name]);
        }
      }
      if (descended) continue;
      if (lowlink_[v->name] == index_[v->name]) pop_component(v);
      frames.pop_back();
      if (!frames.empty()) {
        const std::string& parent = frames.back().node->name;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v->name]);
      }
    }
  }

  void push_node(const CallGraphNode* node, std::vector<Frame>& frames) {
    index_[node->name] = counter_;
    lowlink_[node->name] = counter_;
    ++counter_;
    stack_.push_back(node);
    on_stack_.insert(node->name);
    frames.push_back(Frame{node, node->callees.begin()});
  }

  void pop_component(const CallGraphNode* root) {
    std::vector<const CallGraphNode*> component;
    for (;;) {
      const CallGraphNode* w = stack_.back();
      stack_.pop_back();
      on_stack_.erase(w->name);
      component.push_back(w);
      if (w == root) break;
    }
    // Deterministic member order regardless of DFS entry point.
    std::sort(component.begin(), component.end(),
              [](const CallGraphNode* a, const CallGraphNode* b) {
                return a->name < b->name;
              });
    components_.push_back(std::move(component));
  }

  const std::map<std::string, CallGraphNode>& nodes_;
  std::map<std::string, int> index_;
  std::map<std::string, int> lowlink_;
  std::set<std::string> on_stack_;
  std::vector<const CallGraphNode*> stack_;
  std::vector<std::vector<const CallGraphNode*>> components_;
  int counter_ = 0;
};

}  // namespace

std::vector<std::vector<const CallGraphNode*>> CallGraph::sccs() const {
  return TarjanScc(nodes_).run();
}

std::map<std::string, LoopWitness> loop_witnesses(const CallGraph& graph) {
  std::map<std::string, LoopWitness> witnesses;
  // Callees before callers: every callee outside the component already
  // has its verdict.
  for (const std::vector<const CallGraphNode*>& scc : graph.sccs()) {
    std::optional<LoopWitness> found;
    const CallGraphNode& first = *scc.front();
    if (scc.size() > 1 || first.callees.count(first.name) != 0) {
      found = LoopWitness{first.name, true};
    }
    for (const CallGraphNode* node : scc) {
      if (found) break;
      for_each_stmt(*node->definition->body, [&](const Stmt& s) {
        if (!found && (s.kind() == StmtKind::For ||
                       s.kind() == StmtKind::While ||
                       s.kind() == StmtKind::DoWhile)) {
          found = LoopWitness{node->name, false};
        }
      });
      for (const std::string& callee : node->callees) {
        if (found) break;
        const auto it = witnesses.find(callee);
        if (it != witnesses.end()) found = it->second;
      }
    }
    if (!found) continue;
    for (const CallGraphNode* node : scc) witnesses[node->name] = *found;
  }
  return witnesses;
}

}  // namespace purec
