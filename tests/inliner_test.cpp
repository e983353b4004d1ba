// Tests for the §3.3 future-work extension: inlining expression-bodied
// pure functions before the polyhedral step.
#include <gtest/gtest.h>

#include "emit/c_printer.h"
#include "parser/parser.h"
#include "purity/purity_checker.h"
#include "sema/symbols.h"
#include "transform/pure_chain.h"
#include "transform/pure_inliner.h"

namespace purec {
namespace {

struct Fixture {
  SourceBuffer buf;
  DiagnosticEngine diags;
  TranslationUnit tu;
  SymbolTable symbols;
  PurityResult purity;

  explicit Fixture(const std::string& src)
      : buf(SourceBuffer::from_string(src)),
        tu(parse(buf, diags)),
        symbols(SymbolTable::build(tu, diags)) {
    PurityOptions options;
    options.listing5_violation_is_error = false;
    purity = check_purity(tu, diags, options);
  }
};

TEST(PureInliner, InlinesSimpleExpressionFunction) {
  Fixture fx(
      "pure float mult(float a, float b) { return a * b; }\n"
      "float* v; float* w;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = mult(w[i], 2.0f); }\n");
  const std::size_t count =
      inline_pure_expression_functions(fx.tu, fx.purity.pure_functions,
                                       fx.symbols);
  EXPECT_EQ(count, 1u);
  const std::string out = print_c(fx.tu);
  const std::size_t k_pos = out.find("void k(");
  ASSERT_NE(k_pos, std::string::npos);
  EXPECT_EQ(out.find("mult(", k_pos), std::string::npos) << out;
  EXPECT_NE(out.find("w[i] * 2.0f"), std::string::npos) << out;
}

TEST(PureInliner, ArgumentsSubstitutedWithParens) {
  // mult(a + 1, b) must inline as (a + 1) * b, not a + 1 * b.
  Fixture fx(
      "pure int mult(int a, int b) { return a * b; }\n"
      "int use(int x, int y) { return mult(x + 1, y); }\n");
  (void)inline_pure_expression_functions(fx.tu, fx.purity.pure_functions,
                                         fx.symbols);
  const std::string out = print_c(fx.tu);
  EXPECT_NE(out.find("(x + 1) * y"), std::string::npos) << out;
}

TEST(PureInliner, LoopBodiedFunctionNotInlined) {
  Fixture fx(
      "pure float dot(pure float* a, pure float* b, int n) {\n"
      "  float res = 0.0f;\n"
      "  for (int i = 0; i < n; ++i) res += a[i] * b[i];\n"
      "  return res;\n"
      "}\n"
      "float** A; float** B; float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    C[i][0] = dot((pure float*)A[i], (pure float*)B[i], n);\n"
      "}\n");
  EXPECT_EQ(inline_pure_expression_functions(
                fx.tu, fx.purity.pure_functions, fx.symbols),
            0u);
}

TEST(PureInliner, QualifierOnlyCastArgumentIsSubstitutedBare) {
  // `(pure float**)cur` only adds qualifiers to `float** cur`: the body
  // must read `cur[...]`, which SCoP extraction accepts as an access. A
  // cast that changes the type (`(float*)raw` for `int* raw`) stays.
  Fixture fx(
      "pure float north(pure float** g, int i, int j)\n"
      "{ return g[i - 1][j]; }\n"
      "pure float first(pure float* p) { return p[0]; }\n"
      "float** cur; float** nxt; int* raw; float* out;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++)\n"
      "    nxt[i][0] = north((pure float**)cur, i, 0);\n"
      "  out[0] = first((pure float*)raw);\n"
      "}\n");
  EXPECT_EQ(inline_pure_expression_functions(
                fx.tu, fx.purity.pure_functions, fx.symbols),
            2u);
  const std::string out = print_c(fx.tu);
  const std::size_t k_pos = out.find("void k(");
  ASSERT_NE(k_pos, std::string::npos);
  EXPECT_NE(out.find("nxt[i][0] = cur[i - 1][0]", k_pos), std::string::npos)
      << out;
  EXPECT_NE(out.find("raw)[0]", k_pos), std::string::npos) << out;
}

TEST(PureInliner, NestedHelpersReachFixpoint) {
  Fixture fx(
      "pure float half(float x) { return x * 0.5f; }\n"
      "pure float avg(float a, float b) { return half(a) + half(b); }\n"
      "float* v; float* w;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = avg(w[i], 1.0f); }\n");
  const std::size_t count =
      inline_pure_expression_functions(fx.tu, fx.purity.pure_functions,
                                       fx.symbols);
  // avg at the call site + the two half() calls inside avg's body, plus
  // the half() calls inside avg's own definition stay (definitions are
  // functions too and get inlined as well).
  EXPECT_GE(count, 3u);
  const std::string out = print_c(fx.tu);
  // The k loop must be call-free.
  const std::size_t k_pos = out.find("void k(");
  ASSERT_NE(k_pos, std::string::npos);
  EXPECT_EQ(out.find("avg(", k_pos), std::string::npos) << out;
  EXPECT_EQ(out.find("half(", k_pos), std::string::npos) << out;
}

TEST(PureInliner, ImpureFunctionsUntouched) {
  Fixture fx(
      "float scaled(float x) { return x * 2.0f; }\n"  // not marked pure
      "float* v;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = scaled(1.0f); }\n");
  EXPECT_EQ(inline_pure_expression_functions(
                fx.tu, fx.purity.pure_functions, fx.symbols),
            0u);
}

TEST(PureInliner, RecursiveExpressionFunctionSkipped) {
  Fixture fx(
      "pure int f(int n) { return n <= 0 ? 0 : f(n - 1); }\n"
      "int use(int n) { return f(n); }\n");
  // `use` can inline f once; f's own body must not explode.
  const std::size_t count =
      inline_pure_expression_functions(fx.tu, fx.purity.pure_functions,
                                       fx.symbols);
  EXPECT_LE(count, 8u + 1u);  // bounded by the round cap
}

// ---------------------------------------------------------------------------
// Chain-level behavior
// ---------------------------------------------------------------------------

TEST(PureInlinerChain, ExtensionExposesRealAccesses) {
  // With inlining, the transformer sees `v[i] = w[i] * 2` — deps exact,
  // loop parallel, and NO tmpConst placeholder is ever created.
  ChainOptions options;
  options.inline_pure_expressions = true;
  ChainArtifacts a = run_pure_chain(
      "pure float mult(float a, float b) { return a * b; }\n"
      "float* v; float* w;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = mult(w[i], 2.0f); }\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.inlined_calls, 1u);
  EXPECT_EQ(a.substituted.find("tmpConst_mult"), std::string::npos)
      << a.substituted;
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
}

TEST(PureInlinerChain, Listing5BecomesPreciseInsteadOfError) {
  // array[i] = func(array, i) is a HARD ERROR in the paper's chain
  // (Listing 5). With the inlining extension the chain sees the real
  // dependence a[i] <- a[i-1], verifies it, and simply does not
  // parallelize — strictly better behavior.
  const char* src =
      "pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }\n"
      "void kernel(int* array) {\n"
      "  for (int i = 1; i < 100; i++)\n"
      "    array[i] = func((pure int*)array, i);\n"
      "}\n";

  ChainArtifacts plain = run_pure_chain(src);
  EXPECT_FALSE(plain.ok);  // paper behavior: hard error

  ChainOptions options;
  options.inline_pure_expressions = true;
  ChainArtifacts extended = run_pure_chain(src, options);
  ASSERT_TRUE(extended.ok) << extended.diagnostics.format();
  EXPECT_GE(extended.inlined_calls, 1u);
  // The loop is sequential (flow dep, distance 1): no omp pragma on it.
  EXPECT_EQ(extended.final_source.find("#pragma omp parallel for"),
            std::string::npos)
      << extended.final_source;
}

TEST(PureInlinerChain, MatmulStillCorrectWithInlining) {
  ChainOptions options;
  options.inline_pure_expressions = true;
  ChainArtifacts a = run_pure_chain(
      "float **A, **Bt, **C;\n"
      "pure float mult(float a, float b) { return a * b; }\n"
      "pure float dot(pure float* a, pure float* b, int size) {\n"
      "  float res = 0.0f;\n"
      "  for (int i = 0; i < size; ++i) res += mult(a[i], b[i]);\n"
      "  return res;\n"
      "}\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; ++i)\n"
      "    for (int j = 0; j < n; ++j)\n"
      "      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);\n"
      "}\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  // mult is inlined into dot's reduction; dot itself (loop-bodied) still
  // goes through substitution in k's nest.
  EXPECT_GE(a.inlined_calls, 1u);
  EXPECT_NE(a.final_source.find("dot("), std::string::npos);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
}

TEST(PureInlinerChain, DefaultChainUnchanged) {
  // The extension is opt-in: without it the artifacts are the paper's.
  ChainArtifacts a = run_pure_chain(
      "pure float mult(float a, float b) { return a * b; }\n"
      "float* v; float* w;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = mult(w[i], 2.0f); }\n");
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.inlined_calls, 0u);
  EXPECT_NE(a.substituted.find("tmpConst_mult"), std::string::npos);
}

}  // namespace
}  // namespace purec
