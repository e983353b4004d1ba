#include "emit/instrument.h"

#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "ast/expr.h"
#include "ast/type.h"

namespace purec {

namespace {

constexpr const char* kParallelForPrefix = "#pragma omp parallel for";

[[nodiscard]] ExprPtr make_ident(std::string name) {
  return std::make_unique<IdentExpr>(std::move(name));
}

[[nodiscard]] ExprPtr make_call(std::string callee,
                                std::vector<ExprPtr> args) {
  return std::make_unique<CallExpr>(make_ident(std::move(callee)),
                                    std::move(args));
}

/// `purec_instr_chunk(&purec_instr_rN);`
[[nodiscard]] StmtPtr make_chunk_tally(const std::string& region) {
  std::vector<ExprPtr> args;
  args.push_back(
      std::make_unique<UnaryExpr>(UnaryOp::AddrOf, make_ident(region)));
  return std::make_unique<ExprStmt>(
      make_call("purec_instr_chunk", std::move(args)));
}

/// The N of a `collapse(N)` clause in `pragma` (1 when absent or not a
/// positive literal).
[[nodiscard]] std::size_t collapsed_loops(const std::string& pragma) {
  const std::string clause = "collapse(";
  const std::size_t at = pragma.find(clause);
  if (at == std::string::npos) return 1;
  const unsigned long n =
      std::strtoul(pragma.c_str() + at + clause.size(), nullptr, 10);
  return n == 0 ? 1 : n;
}

/// Drops the ` simd` of a combined `#pragma omp parallel for simd`; true
/// when there was one.
bool drop_simd(std::string& pragma) {
  const std::string simd = " simd";
  const std::size_t at = std::string(kParallelForPrefix).size();
  if (pragma.compare(at, simd.size(), simd) != 0 ||
      (pragma.size() > at + simd.size() && pragma[at + simd.size()] != ' ')) {
    return false;
  }
  pragma.erase(at, simd.size());
  return true;
}

/// Plants the chunk tally at the top of the body of every loop that sits
/// directly under a `#pragma omp parallel for` sibling: each iteration a
/// worker claims bumps its padded cell exactly once, so the per-worker
/// totals read back the scheduler's actual work split. Under
/// `collapse(N)` the claimed iteration is one of the N-loop product, and
/// the loops in between must stay perfectly nested, so the tally goes
/// into the innermost collapsed loop's body. The tally queries the thread
/// number and does an atomic add, neither of which OpenMP allows in a
/// simd region, so a combined `parallel for simd` loses its ` simd`.
/// Returns how many did.
std::size_t add_chunk_tallies(Stmt& s, const std::string& region) {
  std::size_t dropped = 0;
  std::function<void(Stmt&)> visit = [&](Stmt& node) {
    if (auto* block = stmt_cast<CompoundStmt>(&node)) {
      std::size_t collapsed = 0;  // 0 = not under a parallel-for pragma
      PragmaStmt* parallel_for = nullptr;
      for (StmtPtr& child : block->stmts) {
        auto* pragma = stmt_cast<PragmaStmt>(child.get());
        if (pragma != nullptr) {
          parallel_for = pragma->text.rfind(kParallelForPrefix, 0) == 0
                             ? pragma
                             : nullptr;
          collapsed = parallel_for != nullptr
                          ? collapsed_loops(pragma->text)
                          : 0;
          continue;
        }
        auto* loop = stmt_cast<ForStmt>(child.get());
        for (std::size_t k = 1; loop != nullptr && k < collapsed; ++k) {
          loop = stmt_cast<ForStmt>(loop->body.get());
        }
        if (collapsed != 0 && loop != nullptr && loop->body) {
          auto* body = stmt_cast<CompoundStmt>(loop->body.get());
          if (body == nullptr) {
            auto wrapped = std::make_unique<CompoundStmt>();
            wrapped->stmts.push_back(std::move(loop->body));
            loop->body = std::move(wrapped);
            body = static_cast<CompoundStmt*>(loop->body.get());
          }
          body->stmts.insert(body->stmts.begin(),
                             make_chunk_tally(region));
          if (drop_simd(parallel_for->text)) ++dropped;
        }
        collapsed = 0;
        parallel_for = nullptr;
        visit(*child);
      }
      return;
    }
    switch (node.kind()) {
      case StmtKind::If: {
        auto& branch = static_cast<IfStmt&>(node);
        visit(*branch.then_stmt);
        if (branch.else_stmt) visit(*branch.else_stmt);
        return;
      }
      case StmtKind::For: {
        auto& loop = static_cast<ForStmt&>(node);
        if (loop.body) visit(*loop.body);
        return;
      }
      case StmtKind::While:
        visit(*static_cast<WhileStmt&>(node).body);
        return;
      case StmtKind::DoWhile:
        visit(*static_cast<DoWhileStmt&>(node).body);
        return;
      default:
        return;
    }
  };
  visit(s);
  return dropped;
}

}  // namespace

const std::string& stats_sink_snippet() {
  static const std::string text =
#include "purec_stats_sink.inc"
      ;
  return text;
}

const std::string& instrument_runtime_snippet() {
  static const std::string text =
#include "purec_instr.inc"
      ;
  return text;
}

std::string instrument_region_definition(std::size_t index,
                                         const std::string& name) {
  const std::string var = "purec_instr_r" + std::to_string(index);
  std::string out;
  out += "static purec_instr_region_t " + var + " = {.name = \"" + name +
         "\", .id = " + std::to_string(index) + "u};\n";
  out += "__attribute__((constructor)) static void " + var +
         "_register(void) {\n  purec_instr_register(&" + var + ");\n}\n";
  return out;
}

std::size_t instrument_region(StmtPtr& nest, std::size_t index) {
  if (!nest) return 0;
  const std::string region = "purec_instr_r" + std::to_string(index);
  const std::size_t dropped = add_chunk_tallies(*nest, region);

  auto block = std::make_unique<CompoundStmt>();
  VarDecl t0;
  t0.name = "purec_instr_t0";
  t0.type = Type::make_builtin(BuiltinKind::ULongLong);
  t0.init = make_call("purec_instr_now", {});
  auto decl = std::make_unique<DeclStmt>();
  decl->decls.push_back(std::move(t0));
  block->stmts.push_back(std::move(decl));
  block->stmts.push_back(std::move(nest));
  std::vector<ExprPtr> args;
  args.push_back(
      std::make_unique<UnaryExpr>(UnaryOp::AddrOf, make_ident(region)));
  args.push_back(make_ident("purec_instr_t0"));
  block->stmts.push_back(std::make_unique<ExprStmt>(
      make_call("purec_instr_region_done", std::move(args))));
  nest = std::move(block);
  return dropped;
}

}  // namespace purec
