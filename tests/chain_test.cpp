// Tests of the full Fig. 1 compiler chain: stage artifacts, call
// substitution/reinsertion, pragma insertion, and the lowered final source.
#include <gtest/gtest.h>

#include "emit/c_printer.h"
#include "parser/parser.h"
#include "purity/purity_checker.h"
#include "transform/call_substitution.h"
#include "transform/pure_chain.h"
#include "test_sources.h"

namespace purec {
namespace {

TEST(Chain, MatmulRunsCleanly) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
}

TEST(Chain, MatmulMarkedArtifactHasScopPragmas) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.marked.find("#pragma scop"), std::string::npos);
  EXPECT_NE(a.marked.find("#pragma endscop"), std::string::npos);
  // Markers are an intermediate artifact only.
  EXPECT_EQ(a.final_source.find("#pragma scop"), std::string::npos);
}

TEST(Chain, MatmulSubstitutedArtifactHasPlaceholder) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.substituted.find("tmpConst_dot_"), std::string::npos);
  // And the final source must NOT leak placeholders.
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos)
      << a.final_source;
}

TEST(Chain, MatmulFinalSourceIsParallelizedAndLowered) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
  // Lowered: no `pure` keyword anywhere, params became const (Listing 8).
  EXPECT_EQ(a.final_source.find("pure "), std::string::npos);
  EXPECT_NE(a.final_source.find("const float* a"), std::string::npos);
  // The reinserted call uses the renamed iterators.
  EXPECT_NE(a.final_source.find("dot("), std::string::npos);
  EXPECT_NE(a.final_source.find("A[t1]"), std::string::npos)
      << a.final_source;
}

TEST(Chain, MatmulScopReport) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  bool main_scop = false;
  for (const ScopReport& r : a.scops) {
    if (r.function == "main") {
      main_scop = true;
      EXPECT_TRUE(r.extracted) << r.failure_reason;
      EXPECT_TRUE(r.transformed);
      EXPECT_TRUE(r.parallelized);
      EXPECT_EQ(r.depth, 2u);
      EXPECT_EQ(r.substituted_calls, 1u);
    }
  }
  EXPECT_TRUE(main_scop);
}

TEST(Chain, PurityErrorStopsChain) {
  ChainArtifacts a = run_pure_chain(
      "int g;\n"
      "pure int f(int a) { g = a; return a; }\n");
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(a.diagnostics.has_error_containing("global"));
  EXPECT_TRUE(a.final_source.empty());
}

TEST(Chain, Listing5IsRejectedByChain) {
  ChainArtifacts a = run_pure_chain(testsrc::kListing5);
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(a.diagnostics.has_error_containing("Listing 5"));
}

TEST(Chain, Listing6AliasSlipsThrough) {
  // §3.4: the checker's name-only rule "does not throw an error" on the
  // alias evasion — pinned behavior. The chain still resolves `alias` to
  // `array` and keeps the loop serial: the pure call reads `array[i-1]`
  // behind its placeholder, so a parallel loop would race.
  ChainArtifacts a = run_pure_chain(testsrc::kListing6);
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_FALSE(a.diagnostics.has_errors()) << a.diagnostics.format();
  EXPECT_EQ(a.final_source.find("#pragma omp parallel"), std::string::npos)
      << a.final_source;
  bool main_scop = false;
  for (const ScopReport& r : a.scops) {
    if (r.function != "main") continue;
    main_scop = true;
    EXPECT_FALSE(r.parallelized);
    EXPECT_EQ(r.failure_reason.rfind("may-alias", 0), 0u) << r.failure_reason;
    EXPECT_NE(r.failure_reason.find("'alias'"), std::string::npos)
        << r.failure_reason;
    EXPECT_NE(r.failure_reason.find("'array'"), std::string::npos)
        << r.failure_reason;
    EXPECT_EQ(r.failure_loc.line, 10u);  // the `alias[i] = ...` write
  }
  EXPECT_TRUE(main_scop);
}

/// The report entry of the only scop in `a`.
const ScopReport& only_scop(const ChainArtifacts& a) {
  EXPECT_EQ(a.scops.size(), 1u) << a.final_source;
  return a.scops.at(0);
}

TEST(Chain, ResolvedOffsetPointerExposesCarriedDependence) {
  // `p[i]` is `a[i + 1]`: iteration i writes what iteration i + 1 reads.
  // Resolution rebases p onto a, so the dependence itself keeps the loop
  // serial (no may-alias fallback needed).
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int n) {\n"
      "  int* p = &a[1];\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i] = a[i] + 1;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport& r = only_scop(a);
  EXPECT_FALSE(r.parallelized) << a.final_source;
  EXPECT_GE(r.dependences, 1u);
  EXPECT_TRUE(r.failure_reason.empty()) << r.failure_reason;
  EXPECT_TRUE(r.transformed);
}

TEST(Chain, ResolvedOffsetsComposeThroughPointerChains) {
  // q = p - 1 = a: `q[i] = a[i] + 1` touches one element per iteration
  // and stays parallel; r = p = a + 1 carries a dependence and does not.
  const auto chain = [](const char* def) {
    return run_pure_chain(std::string("void k(int* a, int n) {\n"
                                      "  int* p = a + 1;\n"
                                      "  int* q = ") +
                          def +
                          ";\n"
                          "  for (int i = 0; i < n; i++)\n"
                          "    q[i] = a[i] + 1;\n"
                          "}\n");
  };
  const ChainArtifacts same = chain("p - 1");
  ASSERT_TRUE(same.ok) << same.diagnostics.format();
  EXPECT_TRUE(only_scop(same).parallelized) << same.final_source;
  const ChainArtifacts shifted = chain("p");
  ASSERT_TRUE(shifted.ok) << shifted.diagnostics.format();
  EXPECT_FALSE(only_scop(shifted).parallelized) << shifted.final_source;
  EXPECT_TRUE(only_scop(shifted).failure_reason.empty())
      << only_scop(shifted).failure_reason;
}

TEST(Chain, PointerWithTwoDefinitionsWrittenBesideAnotherBaseStaysSerial) {
  // p is a or b depending on c: it cannot be resolved, and it may point
  // into a, which the nest reads at another index.
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int* b, int n, int c) {\n"
      "  int* p = a;\n"
      "  if (c) p = b;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i + 1] = a[i] + 1;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport& r = only_scop(a);
  EXPECT_FALSE(r.parallelized);
  EXPECT_EQ(a.final_source.find("#pragma omp parallel"), std::string::npos)
      << a.final_source;
  EXPECT_EQ(r.failure_reason.rfind("may-alias", 0), 0u) << r.failure_reason;
  EXPECT_NE(r.failure_reason.find("'p'"), std::string::npos)
      << r.failure_reason;
  EXPECT_NE(r.failure_reason.find("'a'"), std::string::npos)
      << r.failure_reason;
  EXPECT_EQ(r.failure_loc.line, 5u);

  // Alone in its nest, the same pointer can only conflict with itself,
  // and the model sees those accesses.
  ChainArtifacts alone = run_pure_chain(
      "void k(int* a, int* b, int n, int c) {\n"
      "  int* p = a;\n"
      "  if (c) p = b;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i] = i;\n"
      "}\n");
  ASSERT_TRUE(alone.ok) << alone.diagnostics.format();
  EXPECT_TRUE(only_scop(alone).parallelized)
      << only_scop(alone).failure_reason;
}

TEST(Chain, UnresolvedPointerReadBesideAWrittenBaseStaysSerial) {
  // Reading q while writing a races exactly when q points into a.
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int* b, int n, int c) {\n"
      "  int* q = b;\n"
      "  if (c) q = a;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i + 1] = q[i] * 3;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport& r = only_scop(a);
  EXPECT_FALSE(r.parallelized);
  EXPECT_EQ(r.failure_reason.rfind("may-alias", 0), 0u) << r.failure_reason;
  EXPECT_NE(r.failure_reason.find("'q'"), std::string::npos)
      << r.failure_reason;
  EXPECT_NE(r.failure_reason.find("'a'"), std::string::npos)
      << r.failure_reason;
  EXPECT_EQ(r.failure_loc.line, 5u);
}

TEST(Chain, MallocPointerWrittenBesideAnotherBaseStaysParallel) {
  // Fresh storage from malloc aliases nothing the nest can name.
  ChainArtifacts a = run_pure_chain(
      "float* twice(float* x, int n) {\n"
      "  float* p = (float*)malloc(n * sizeof(float));\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i] = x[i] * 2.0f;\n"
      "  return p;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport& r = only_scop(a);
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  EXPECT_TRUE(r.failure_reason.empty()) << r.failure_reason;
}

TEST(Chain, ReturnsFreshCalleeResultsWrittenInOneLoopStayParallel) {
  // alloc_vec returns its own malloc result and hands it to nobody else,
  // so X and Y are fresh objects like two malloc results.
  ChainArtifacts a = run_pure_chain(
      "float* alloc_vec(int n) {\n"
      "  float* v = (float*)malloc(n * sizeof(float));\n"
      "  for (int i = 0; i < n; i++) v[i] = 0.0f;\n"
      "  return v;\n"
      "}\n"
      "int main(void) {\n"
      "  int n = 64;\n"
      "  float* X = alloc_vec(n);\n"
      "  float* Y = alloc_vec(n);\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    X[i] = (float)i;\n"
      "    Y[i] = (float)(2 * i);\n"
      "  }\n"
      "  return (int)(X[3] + Y[3]);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* init = nullptr;
  for (const ScopReport& r : a.scops) {
    if (r.function == "main") init = &r;
  }
  ASSERT_NE(init, nullptr);
  EXPECT_TRUE(init->parallelized) << init->failure_reason;
  EXPECT_TRUE(init->failure_reason.empty()) << init->failure_reason;
}

TEST(Chain, CalleeThatAlsoStoresItsResultInAGlobalIsNotFresh) {
  // keep_vec's result is also reachable through the global `kept`, so X
  // may be any object: the loop writing X beside Y stays serial.
  ChainArtifacts a = run_pure_chain(
      "float* kept;\n"
      "float* keep_vec(int n) {\n"
      "  float* v = (float*)malloc(n * sizeof(float));\n"
      "  kept = v;\n"
      "  return v;\n"
      "}\n"
      "float* alloc_vec(int n) {\n"
      "  return (float*)malloc(n * sizeof(float));\n"
      "}\n"
      "int main(void) {\n"
      "  int n = 64;\n"
      "  float* X = keep_vec(n);\n"
      "  float* Y = alloc_vec(n);\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    X[i] = (float)i;\n"
      "    Y[i] = (float)(2 * i);\n"
      "  }\n"
      "  return (int)(X[3] + Y[3]);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport& r = only_scop(a);
  EXPECT_FALSE(r.parallelized);
  EXPECT_EQ(r.failure_reason.rfind("may-alias: local pointer 'X'", 0), 0u)
      << r.failure_reason;
}

TEST(Chain, PointerParameterWrittenBesideAnotherBaseStaysParallel) {
  // Pointer parameters keep the distinct-base assumption.
  ChainArtifacts a = run_pure_chain(
      "void k(float* p, float* x, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i] = x[i] * 2.0f;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport& r = only_scop(a);
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  EXPECT_TRUE(r.failure_reason.empty()) << r.failure_reason;
}

TEST(Chain, SystemIncludesAreRestored) {
  const std::string src = std::string("#include <stdio.h>\n") +
                          "#include <stdlib.h>\n" + testsrc::kMatmul;
  ChainArtifacts a = run_pure_chain(src);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.stripped.find("<stdio.h>"), std::string::npos);
  EXPECT_NE(a.final_source.find("#include <stdio.h>"), std::string::npos);
  EXPECT_NE(a.final_source.find("#include <stdlib.h>"), std::string::npos);
  // OpenMP header added because a loop was parallelized.
  EXPECT_NE(a.final_source.find("#include <omp.h>"), std::string::npos);
}

TEST(Chain, PreludeMacrosPresent) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.final_source.find("#define floord"), std::string::npos);
  EXPECT_NE(a.final_source.find("#define ceild"), std::string::npos);
}

TEST(Chain, MallocInitLoopGetsParallelized) {
  // §4.3.1: the allocation loop is parallelized because malloc is seeded
  // pure — the accidental speedup the paper reports.
  ChainArtifacts a = run_pure_chain(testsrc::kMatmulWithInit);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
  EXPECT_NE(a.final_source.find("malloc"), std::string::npos);
}

TEST(Chain, SatelliteUsesScheduleClause) {
  ChainOptions options;
  options.schedule = {OmpScheduleKind::Dynamic, 1};
  ChainArtifacts a = run_pure_chain(testsrc::kSatellite, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find(
                "#pragma omp parallel for schedule(dynamic,1)"),
            std::string::npos);
}

TEST(Chain, GuidedScheduleRoundTripsThroughChain) {
  ChainOptions options;
  options.schedule = *ScheduleSpec::parse("guided,8");
  ChainArtifacts a = run_pure_chain(testsrc::kSatellite, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find(
                "#pragma omp parallel for schedule(guided,8)"),
            std::string::npos);
}

TEST(Chain, ReportsTheScheduleClauseCodegenPrinted) {
  // A triangular classic nest gets the guided default; a user spec wins.
  // The report states whichever clause the pragma carries.
  const auto expect_clause = [](const ChainOptions& options,
                                const std::string& clause) {
    const ChainArtifacts a = run_pure_chain(
        "float** L;\n"
        "void k(int n) {\n"
        "  for (int i = 0; i < n; i++)\n"
        "    for (int j = 0; j <= i; j++)\n"
        "      L[i][j] = 1.0f;\n"
        "}\n",
        options);
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    ASSERT_EQ(a.scops.size(), 1u);
    EXPECT_FALSE(a.scops[0].region);
    EXPECT_EQ(a.scops[0].schedule_clause, clause);
    EXPECT_NE(a.final_source.find("#pragma omp parallel for " + clause),
              std::string::npos)
        << a.final_source;
  };
  ChainOptions options;
  expect_clause(options, "schedule(guided,4)");
  options.schedule = *ScheduleSpec::parse("dynamic,1");
  expect_clause(options, "schedule(dynamic,1)");
}

TEST(Chain, SicaModeEmitsSimd) {
  ChainOptions options;
  options.mode = TransformMode::PlutoSica;
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp simd"), std::string::npos);
}

// The default mode vectorizes the innermost parallel loop of a nest
// whose pure callees run no loop; sica vectorizes every nest.
const ScopReport* scop_in(const ChainArtifacts& a, const std::string& fn) {
  for (const ScopReport& r : a.scops) {
    if (r.function == fn) return &r;
  }
  return nullptr;
}

TEST(ChainSimd, StraightLineCalleeGetsSimdInDefaultMode) {
  const ChainArtifacts a = run_pure_chain(testsrc::kHeat);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* step = scop_in(a, "step");
  ASSERT_NE(step, nullptr);
  EXPECT_TRUE(step->simd);
  EXPECT_EQ(step->simd_withheld, "");
  // Inside the parallel tile loops, on the innermost point loop.
  const std::size_t parallel = a.final_source.find("#pragma omp parallel");
  const std::size_t simd = a.final_source.find("#pragma omp simd\n");
  ASSERT_NE(simd, std::string::npos) << a.final_source;
  EXPECT_LT(parallel, simd) << a.final_source;
  EXPECT_NE(a.final_source.find("stencil(", simd), std::string::npos);
}

TEST(ChainSimd, LoopingCalleeWithholdsSimdAndSaysWhy) {
  // `dot` runs a loop: each SIMD lane would walk its own row.
  const ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.final_source.find("#pragma omp simd"), std::string::npos)
      << a.final_source;
  const ScopReport* nest = scop_in(a, "main");
  ASSERT_NE(nest, nullptr);
  EXPECT_TRUE(nest->parallelized);
  EXPECT_FALSE(nest->simd);
  EXPECT_EQ(nest->simd_withheld, "callee 'dot' contains a loop");

  // sica keeps the paper's configuration: simd whatever the callee does.
  ChainOptions sica;
  sica.mode = TransformMode::PlutoSica;
  const ChainArtifacts s = run_pure_chain(testsrc::kMatmul, sica);
  ASSERT_TRUE(s.ok);
  EXPECT_TRUE(scop_in(s, "main")->simd);
  EXPECT_EQ(scop_in(s, "main")->simd_withheld, "");
}

TEST(ChainSimd, LoopReachedThroughACalleeOrRecursionWithholdsSimd) {
  const std::string callees =
      "float** A; float** B; float** C;\n"
      "pure float dot(pure float* a, pure float* b, int n) {\n"
      "  float r = 0.0f;\n"
      "  for (int k = 0; k < n; k++) r += a[k] * b[k];\n"
      "  return r;\n"
      "}\n"
      "pure float wrap(pure float* a, pure float* b, int n) {\n"
      "  return dot(a, b, n) + 1.0f;\n"
      "}\n"
      "pure int steps(int x) {\n"
      "  return x <= 1 ? 0 : 1 + steps(x / 2);\n"
      "}\n";
  const ChainArtifacts through = run_pure_chain(
      callees +
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = wrap((pure float*)A[i], (pure float*)B[j], n);\n"
      "}\n");
  ASSERT_TRUE(through.ok) << through.diagnostics.format();
  EXPECT_EQ(through.final_source.find("#pragma omp simd"),
            std::string::npos);
  EXPECT_EQ(scop_in(through, "k")->simd_withheld,
            "callee 'wrap' contains a loop (in 'dot')");

  const ChainArtifacts recursive = run_pure_chain(
      callees +
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = (float)steps(i + j);\n"
      "}\n");
  ASSERT_TRUE(recursive.ok) << recursive.diagnostics.format();
  EXPECT_EQ(recursive.final_source.find("#pragma omp simd"),
            std::string::npos);
  EXPECT_EQ(scop_in(recursive, "k")->simd_withheld,
            "callee 'steps' is recursive");
}

TEST(ChainSimd, MemoizedCalleeWithholdsSimd) {
  ChainOptions options;
  options.memoize = true;
  options.memoize_all = true;
  options.tile = false;
  const ChainArtifacts a = run_pure_chain(
      "int** T;\n"
      "pure int sq(int x) {\n"
      "  return x * x + 1;\n"
      "}\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      T[i][j] = sq(i + j);\n"
      "}\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.memoized_calls, 1u);
  EXPECT_EQ(a.final_source.find("#pragma omp simd"), std::string::npos)
      << a.final_source;
  EXPECT_EQ(scop_in(a, "k")->simd_withheld,
            "callee 'sq' is memoized (its thunk probes and updates a "
            "table)");
}

// A simd loop that moves any subscript but the last, or the last by a
// stride other than +-1, makes the lanes gather and scatter.
TEST(ChainSimd, StridedAccessWithholdsSimdAndSaysWhy) {
  const auto withheld = [](const std::string& source) {
    const ChainArtifacts a = run_pure_chain(source);
    EXPECT_TRUE(a.ok) << a.diagnostics.format();
    const ScopReport* nest = scop_in(a, "k");
    EXPECT_NE(nest, nullptr);
    if (nest == nullptr) return std::string("no scop");
    EXPECT_TRUE(nest->parallelized);
    EXPECT_EQ(nest->simd, nest->simd_withheld.empty());
    EXPECT_EQ(a.final_source.find("#pragma omp simd") == std::string::npos,
              !nest->simd)
        << a.final_source;
    return nest->simd_withheld;
  };
  // A transposed read, also inside a pure call's arguments (hidden from
  // the model, not from the lanes).
  EXPECT_EQ(withheld("float** A; float** B;\n"
                     "void k(int n) {\n"
                     "  for (int i = 0; i < n; i++)\n"
                     "    for (int j = 0; j < n; j++)\n"
                     "      B[i][j] = A[j][i] + 1.0f;\n"
                     "}\n"),
            "loop 'j' strides 'A[j][i]' by a whole row (it moves a "
            "subscript other than the last)");
  EXPECT_EQ(withheld("float** A; float** B;\n"
                     "pure float f(float u, float v) { return u - v; }\n"
                     "void k(int n) {\n"
                     "  for (int i = 0; i < n; i++)\n"
                     "    for (int j = 0; j < n; j++)\n"
                     "      B[i][j] = f(A[i][j], A[j][i]);\n"
                     "}\n"),
            "loop 'j' strides 'A[j][i]' by a whole row (it moves a "
            "subscript other than the last)");
  // ell's column-major init: a flattened subscript stepped by a
  // parameter.
  EXPECT_EQ(withheld("void k(float* v, int rows, int w) {\n"
                     "  for (int row = 0; row < rows; row++)\n"
                     "    for (int c = 0; c < w; c++)\n"
                     "      v[c * rows + row] = 1.0f;\n"
                     "}\n"),
            "loop 'c' strides 'v[c * rows + row]' by a non-constant factor");
  EXPECT_EQ(withheld("float** A;\n"
                     "void k(int n) {\n"
                     "  for (int i = 0; i < n; i++)\n"
                     "    for (int j = 0; j < n; j++)\n"
                     "      A[i][2 * j] = A[i][2 * j] + 1.0f;\n"
                     "}\n"),
            "loop 'j' strides 'A[i][2 * j]' by 2 elements");
  // Unit strides either way, and accesses the loop does not move, keep it.
  EXPECT_EQ(withheld("float** A; float** B; float* r;\n"
                     "void k(int n) {\n"
                     "  for (int i = 0; i < n; i++)\n"
                     "    for (int j = 1; j < n; j++)\n"
                     "      B[i][j] = A[i][n - j] + A[i][j - 1] + r[i];\n"
                     "}\n"),
            "");

  // sica keeps the paper's configuration: simd whatever the strides.
  ChainOptions sica;
  sica.mode = TransformMode::PlutoSica;
  const ChainArtifacts s = run_pure_chain(
      "float** A; float** B;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      B[i][j] = A[j][i] + 1.0f;\n"
      "}\n",
      sica);
  ASSERT_TRUE(s.ok);
  EXPECT_TRUE(scop_in(s, "k")->simd);
}

// A tile keeps what a nest reads in cache: a write-only fill is left
// untiled, with the reason stated; a nest that reads, directly or through
// a pure call, keeps its tiles.
TEST(ChainTile, WriteOnlyFillIsNotTiled) {
  const ChainArtifacts fill = run_pure_chain(
      "float** M;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      M[i][j] = (float)(i * 3 + j);\n"
      "}\n");
  ASSERT_TRUE(fill.ok) << fill.diagnostics.format();
  const ScopReport* nest = scop_in(fill, "k");
  ASSERT_NE(nest, nullptr);
  EXPECT_TRUE(nest->parallelized);
  EXPECT_FALSE(nest->tiled);
  EXPECT_EQ(nest->tile_withheld,
            "the nest reads no array (a tile would keep nothing in cache)");
  EXPECT_EQ(fill.final_source.find("t1t"), std::string::npos)
      << fill.final_source;

  for (const char* body : {"      M[i][j] = N[j][i];\n",
                           "      M[i][j] = f(i, j);\n"}) {
    const ChainArtifacts reads = run_pure_chain(
        std::string("float** M; float** N;\n"
                    "pure float f(int a, int b) { return a * 0.5f + b; }\n"
                    "void k(int n) {\n"
                    "  for (int i = 0; i < n; i++)\n"
                    "    for (int j = 0; j < n; j++)\n") +
        body + "}\n");
    ASSERT_TRUE(reads.ok) << reads.diagnostics.format();
    EXPECT_TRUE(scop_in(reads, "k")->tiled) << body;
    EXPECT_EQ(scop_in(reads, "k")->tile_withheld, "") << body;
  }

  // Tiling off: nothing was withheld.
  ChainOptions untiled;
  untiled.tile = false;
  const ChainArtifacts off = run_pure_chain(
      "float** M;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      M[i][j] = (float)(i * 3 + j);\n"
      "}\n",
      untiled);
  ASSERT_TRUE(off.ok);
  EXPECT_EQ(scop_in(off, "k")->tile_withheld, "");
}

TEST(ChainSimd, IntegerReductionGetsTheSimdReductionClause) {
  const ChainArtifacts a = run_pure_chain(
      "int** M;\n"
      "int total(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      s += M[i][j];\n"
      "  return s;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp simd reduction(+:s)\n"),
            std::string::npos)
      << a.final_source;
  EXPECT_TRUE(scop_in(a, "total")->simd);
}

TEST(ChainSimd, FloatAccumulatorWithoutFpReductionsGetsNoSimd) {
  const std::string source =
      "float** M;\n"
      "float total(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      s += M[i][j];\n"
      "  return s;\n"
      "}\n";
  const ChainArtifacts a = run_pure_chain(source);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.final_source.find("#pragma omp simd"), std::string::npos)
      << a.final_source;
  EXPECT_FALSE(scop_in(a, "total")->simd);

  ChainOptions fp;
  fp.fp_reductions = true;
  const ChainArtifacts b = run_pure_chain(source, fp);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(b.final_source.find("#pragma omp simd reduction(+:s)\n"),
            std::string::npos)
      << b.final_source;
}

TEST(ChainSimd, NoParallelMeansNoSimd) {
  ChainOptions options;
  options.parallelize = false;
  const ChainArtifacts a = run_pure_chain(testsrc::kHeat, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos)
      << a.final_source;
  EXPECT_FALSE(scop_in(a, "step")->simd);
  EXPECT_EQ(scop_in(a, "step")->simd_withheld, "");
}

TEST(ChainSimd, RegionLeafLoopGetsSimdBesidePrivatization) {
  // The private_tmp shape: the outer loop takes private(t), the leaf loop
  // is parallel on its own and vectorizes.
  const ChainArtifacts a = run_pure_chain(
      "pure float half(float x) {\n"
      "  return 0.5f * x;\n"
      "}\n"
      "void sweep(float** out, float* in, float* w, int n, int m) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = half(in[i]);\n"
      "    for (int j = 0; j < m; j++)\n"
      "      out[i][j] = t * w[j];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* sweep = scop_in(a, "sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_TRUE(sweep->region);
  EXPECT_TRUE(sweep->simd);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for private(t)"),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("#pragma omp simd\n"), std::string::npos)
      << a.final_source;
}

// A loop that takes the parallel pragma and is also the innermost loop
// the nest vectorizes gets the combined `parallel for simd`; a standalone
// `omp simd` line never sits on top of `parallel for`.
TEST(ChainSimd, OneDimensionalPureCallLoopGetsParallelForSimd) {
  const ChainArtifacts a = run_pure_chain(
      "float* v;\n"
      "pure float twice(float x) {\n"
      "  return x + x;\n"
      "}\n"
      "void fill(int n) {\n"
      "  for (int i = 0; i < n; i++) v[i] = twice((float)i);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp parallel for simd\n"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("#pragma omp simd"), std::string::npos)
      << a.final_source;
  EXPECT_TRUE(scop_in(a, "fill")->simd);
  EXPECT_EQ(scop_in(a, "fill")->simd_withheld, "");
}

TEST(ChainSimd, OneDimensionalReductionsGetParallelForSimdReduction) {
  const auto combined = [](const char* type, const ChainOptions& options) {
    const ChainArtifacts a = run_pure_chain(
        std::string(type) + "* a;\n" + type + " total(int n) {\n  " +
            type +
            " s = 0;\n"
            "  for (int i = 0; i < n; i++) s += a[i];\n"
            "  return s;\n"
            "}\n",
        options);
    EXPECT_TRUE(a.ok) << a.diagnostics.format();
    EXPECT_EQ(a.final_source.find("#pragma omp simd"), std::string::npos)
        << a.final_source;
    return a.final_source.find("#pragma omp parallel for simd "
                               "reduction(+:s)\n") != std::string::npos &&
           scop_in(a, "total")->simd;
  };
  EXPECT_TRUE(combined("int", ChainOptions{}));
  ChainOptions fp;
  fp.fp_reductions = true;
  EXPECT_TRUE(combined("float", fp));
}

TEST(ChainSimd, OneDimensionalLoopOverALoopingCalleeKeepsParallelFor) {
  const ChainArtifacts a = run_pure_chain(
      "float** A; float* b; float* out;\n"
      "pure float dot(pure float* x, pure float* y, int n) {\n"
      "  float r = 0.0f;\n"
      "  for (int k = 0; k < n; k++) r += x[k] * y[k];\n"
      "  return r;\n"
      "}\n"
      "void rows(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    out[i] = dot((pure float*)A[i], (pure float*)b, n);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp parallel for\n"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find(" simd"), std::string::npos)
      << a.final_source;
  const ScopReport* nest = scop_in(a, "rows");
  ASSERT_NE(nest, nullptr);
  EXPECT_TRUE(nest->parallelized);
  EXPECT_FALSE(nest->simd);
  EXPECT_EQ(nest->simd_withheld, "callee 'dot' contains a loop");
}

TEST(ChainSimd, EachFissionGroupGetsItsOwnParallelForSimd) {
  // The scan carries a dependence and stays serial; the two maps split
  // off it each vectorize under their own combined pragma.
  const ChainArtifacts a = run_pure_chain(
      "pure float twice(float x) {\n"
      "  return 2.0f * x;\n"
      "}\n"
      "void split(float* acc, float* out, float* in, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i > 0)\n"
      "      acc[i] = acc[i - 1] + in[i];\n"
      "    out[i] = twice(in[i]);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* nest = scop_in(a, "split");
  ASSERT_NE(nest, nullptr);
  ASSERT_TRUE(nest->fissioned);
  EXPECT_TRUE(nest->simd);
  std::size_t combined = 0;
  for (std::size_t at = a.final_source.find("#pragma omp parallel for simd");
       at != std::string::npos;
       at = a.final_source.find("#pragma omp parallel for simd", at + 1)) {
    ++combined;
  }
  EXPECT_EQ(combined, nest->fission_parallel_groups) << a.final_source;
  EXPECT_EQ(a.final_source.find("#pragma omp simd"), std::string::npos)
      << a.final_source;
}

TEST(ChainSimd, PrivatizationDependentRegionLoopKeepsParallelFor) {
  // The guard keeps the nest on the region path, where `t` makes the
  // loop parallel only with private(t): no simd, and the report says why.
  const ChainArtifacts a = run_pure_chain(
      "pure float half(float x) {\n"
      "  return 0.5f * x;\n"
      "}\n"
      "void sweep(float* out, float* in, float* w, int n, int m) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = half(in[i]);\n"
      "    if (i < m)\n"
      "      out[i] = t * w[i];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* nest = scop_in(a, "sweep");
  ASSERT_NE(nest, nullptr);
  EXPECT_TRUE(nest->region);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for private(t)\n"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find(" simd"), std::string::npos)
      << a.final_source;
  EXPECT_FALSE(nest->simd);
  EXPECT_EQ(nest->simd_withheld, "innermost loop 'i' carries a dependence");
}

TEST(ChainSimd, SerialOneDimensionalLoopsGetNoSimd) {
  const std::string fill =
      "float* v;\n"
      "pure float twice(float x) {\n"
      "  return x + x;\n"
      "}\n"
      "void fill(int n) {\n"
      "  for (int i = 0; i < n; i++) v[i] = twice((float)i);\n"
      "}\n";
  for (const TransformMode mode :
       {TransformMode::Pluto, TransformMode::PlutoSica}) {
    ChainOptions serial;
    serial.parallelize = false;
    serial.mode = mode;
    const ChainArtifacts a = run_pure_chain(fill, serial);
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos)
        << a.final_source;
    EXPECT_FALSE(scop_in(a, "fill")->simd);
  }

  // A may-alias nest keeps its source order and gets no pragma at all.
  const ChainArtifacts alias = run_pure_chain(
      "void k(int* a, int* b, int n, int c) {\n"
      "  int* p = a;\n"
      "  if (c) p = b;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i + 1] = a[i] + 1;\n"
      "}\n");
  ASSERT_TRUE(alias.ok) << alias.diagnostics.format();
  EXPECT_EQ(alias.final_source.find("#pragma omp"), std::string::npos)
      << alias.final_source;
  EXPECT_FALSE(scop_in(alias, "k")->simd);
}

TEST(ChainSimd, InnermostLoopCarryingADependenceIsTheReason) {
  // matmul_nest's `k` accumulates into C[i][j]: the nest parallelizes
  // over i but vectorizes no loop.
  const ChainArtifacts a = run_pure_chain(
      "float** A; float** B; float** C;\n"
      "void k3(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      for (int k = 0; k < n; k++)\n"
      "        C[i][j] = C[i][j] + A[i][k] * B[k][j];\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* nest = scop_in(a, "k3");
  ASSERT_NE(nest, nullptr);
  EXPECT_TRUE(nest->parallelized);
  EXPECT_FALSE(nest->simd);
  EXPECT_EQ(nest->simd_withheld, "innermost loop 'k' carries a dependence");
  EXPECT_EQ(a.final_source.find(" simd"), std::string::npos)
      << a.final_source;
}

TEST(ChainVolatile, NestTouchingAVolatileObjectStaysSerialWithAReason) {
  const ChainArtifacts a = run_pure_chain(
      "volatile int ticks;\n"
      "float* out;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    out[i] = (float)ticks;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("volatile int ticks;"), std::string::npos)
      << a.final_source;
  const ScopReport* k = scop_in(a, "k");
  ASSERT_NE(k, nullptr);
  EXPECT_FALSE(k->transformed);
  EXPECT_EQ(k->failure_reason,
            "volatile: 'ticks' is volatile (its accesses stay as written, "
            "in order)");
  EXPECT_EQ(k->failure_loc.line, 5u);

  // Through a pointer to volatile, and through a cast that adds it.
  const ChainArtifacts cast = run_pure_chain(
      "float* out; float* dev;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    out[i] = ((volatile float*)dev)[i];\n"
      "}\n");
  ASSERT_TRUE(cast.ok) << cast.diagnostics.format();
  EXPECT_EQ(cast.final_source.find("#pragma omp"), std::string::npos)
      << cast.final_source;
}

TEST(ChainVolatile, NoFusionAcrossAVolatileNest) {
  const ChainArtifacts a = run_pure_chain(
      "volatile float* port;\n"
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) a[i] = 1.0f;\n"
      "  for (int i = 0; i < n; i++) port[i] = a[i];\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.fusion_decisions.size(), 1u);
  EXPECT_FALSE(a.fusion_decisions[0].fused);
  EXPECT_EQ(a.fusion_decisions[0].reason.rfind("volatile: 'port'", 0), 0u)
      << a.fusion_decisions[0].reason;
}

TEST(Chain, EllAndHeatTransform) {
  for (const char* src : {testsrc::kEll, testsrc::kHeat}) {
    ChainArtifacts a = run_pure_chain(src);
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
              std::string::npos)
        << a.final_source;
  }
}

TEST(Chain, ParallelizationCanBeDisabled) {
  ChainOptions options;
  options.parallelize = false;
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.final_source.find("#pragma omp parallel"), std::string::npos);
}

TEST(Chain, VirtualIncludeAndDefines) {
  ChainOptions options;
  options.virtual_includes["size.h"] = "#define N 16\n";
  ChainArtifacts a = run_pure_chain(
      "#include \"size.h\"\n"
      "float* v;\n"
      "void f() { for (int i = 0; i < N; i++) v[i] = 1.0f; }\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.preprocessed.find("i < 16"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Call substitution unit behavior
// ---------------------------------------------------------------------------

struct LoopFixture {
  SourceBuffer buf;
  DiagnosticEngine diags;
  TranslationUnit tu;
  ForStmt* loop = nullptr;

  explicit LoopFixture(const std::string& src)
      : buf(SourceBuffer::from_string(src)), tu(parse(buf, diags)) {
    for (FunctionDecl* fn : tu.functions()) {
      if (!fn->body) continue;
      for (StmtPtr& s : fn->body->stmts) {
        if (auto* f = stmt_cast<ForStmt>(s.get())) loop = f;
      }
    }
  }
};

TEST(CallSubstitution, ReplaceAndRestoreRoundTrip) {
  LoopFixture fx(
      "pure float g(int i);\n"
      "float* v;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = g(i) + g(i + 1); }\n");
  ASSERT_NE(fx.loop, nullptr);
  const std::string before = print_c(*fx.loop);

  std::size_t counter = 0;
  std::set<std::string> pure = {"g"};
  auto calls = substitute_pure_calls(*fx.loop, pure, counter);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].placeholder, "tmpConst_g_0");
  EXPECT_EQ(calls[1].placeholder, "tmpConst_g_1");
  const std::string substituted = print_c(*fx.loop);
  EXPECT_NE(substituted.find("tmpConst_g_0"), std::string::npos);
  EXPECT_EQ(substituted.find("g("), std::string::npos);

  const std::size_t restored = reinsert_pure_calls(*fx.loop, calls);
  EXPECT_EQ(restored, 2u);
  EXPECT_EQ(print_c(*fx.loop), before);
}

TEST(CallSubstitution, OnlyPureCallsSubstituted) {
  LoopFixture fx(
      "pure float g(int i);\n"
      "float h(int i);\n"
      "float* v;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = g(i) + h(i); }\n");
  std::size_t counter = 0;
  std::set<std::string> pure = {"g"};
  auto calls = substitute_pure_calls(*fx.loop, pure, counter);
  EXPECT_EQ(calls.size(), 1u);
  const std::string text = print_c(*fx.loop);
  EXPECT_NE(text.find("h(i)"), std::string::npos);
  EXPECT_EQ(text.find("g(i)"), std::string::npos);
}

TEST(CallSubstitution, NestedCallSubstitutedAsWhole) {
  LoopFixture fx(
      "pure float g(float x);\n"
      "pure float f(float x);\n"
      "float* v;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = g(f(1.0f)); }\n");
  std::size_t counter = 0;
  std::set<std::string> pure = {"g", "f"};
  auto calls = substitute_pure_calls(*fx.loop, pure, counter);
  // The outer call is replaced wholesale; the inner call travels with it.
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].placeholder, "tmpConst_g_0");
}

// ---------------------------------------------------------------------------
// Region SCoPs through the whole chain
// ---------------------------------------------------------------------------

TEST(Chain, WhileLoopCanonicalizesAndParallelizes) {
  ChainArtifacts a = run_pure_chain(
      "pure float twice(float x) { return 2.0f * x; }\n"
      "float* v;\n"
      "void k(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    v[i] = twice((float)i);\n"
      "    i = i + 1;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.canonicalized_whiles, 1u);
  // The canonicalized loop SCoP-marks like a for twin...
  EXPECT_NE(a.marked.find("#pragma scop"), std::string::npos);
  // ...and parallelizes through the classic path.
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("while"), std::string::npos);
}

TEST(Chain, GuardedRegionReinsertsCallsUnderTheirGuards) {
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 3.0f * x; }\n"
      "pure float shift(float x) { return x - 1.0f; }\n"
      "void k(float* a, float* b, float* c, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = scale(x[i]);\n"
      "    else\n"
      "      b[i] = shift(x[i]);\n"
      "    c[i] = a[i + m] + b[i];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.region);
  EXPECT_TRUE(r.transformed) << r.failure_reason;
  EXPECT_TRUE(r.parallelized);
  EXPECT_EQ(r.parallel_loops, 1u);
  EXPECT_EQ(r.substituted_calls, 2u);
  // Substitution hid both calls behind placeholders...
  EXPECT_NE(a.substituted.find("tmpConst_scale_"), std::string::npos);
  // ...and reinsertion put them back under their guards, with no
  // placeholder leaking.
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("scale(x[i])"), std::string::npos);
  EXPECT_NE(a.final_source.find("shift(x[i])"), std::string::npos);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
  EXPECT_NE(a.final_source.find("else"), std::string::npos);
}

TEST(Chain, RegionWithRealConflictDegradesToSerialWithReason) {
  // The two statements form a dependence cycle (a[i] reads c[i-1],
  // c[i] reads a[i]), so fission cannot separate them: the nest must
  // stay untouched and the report must say why.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 3.0f * x; }\n"
      "void k(float* a, float* c, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = scale(x[i]) * c[i - 1];\n"
      "    c[i] = a[i] * 0.5f;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].region);
  EXPECT_FALSE(a.scops[0].transformed);
  EXPECT_FALSE(a.scops[0].fissioned);
  EXPECT_NE(a.scops[0].failure_reason.find("stays serial"),
            std::string::npos)
      << a.scops[0].failure_reason;
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
  // The undone nest keeps its original calls.
  EXPECT_NE(a.final_source.find("scale(x[i])"), std::string::npos);
}

TEST(Chain, RegionPartialConflictFissionsIntoParallelLoops) {
  // Only a loop-independent (crossing) dependence links the two
  // statements: a[i] is produced in one statement and a[i - 1]
  // consumed in the other. Distribution puts each in its own loop and
  // both become parallel.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 3.0f * x; }\n"
      "void k(float* a, float* c, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = scale(x[i]);\n"
      "    c[i] = a[i - 1];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.region);
  EXPECT_TRUE(r.transformed) << r.failure_reason;
  EXPECT_TRUE(r.parallelized);
  EXPECT_TRUE(r.fissioned);
  EXPECT_EQ(r.fission_groups, 2u);
  EXPECT_EQ(r.fission_parallel_groups, 2u);
  // Two distributed loops, each with its own pragma, and the pure
  // call reinserted under its guard.
  std::size_t first =
      a.final_source.find("#pragma omp parallel for");
  ASSERT_NE(first, std::string::npos) << a.final_source;
  EXPECT_NE(a.final_source.find("#pragma omp parallel for", first + 1),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("scale(x[i])"), std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos);
}

TEST(Chain, AdjacentSiblingNestsFuseIntoOneParallelLoop) {
  // Two adjacent loops with identical headers and no crossing
  // dependence: the chain fuses them before extraction, so one pragma
  // covers both statements.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 2.0f * x; }\n"
      "pure float shift(float x) { return x + 3.0f; }\n"
      "void k(float* a, float* b, float* x, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i] = scale(x[i]);\n"
      "  for (int j = 0; j < n; j++)\n"
      "    b[j] = shift(x[j]);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  EXPECT_EQ(r.fused_loops, 1u);
  ASSERT_EQ(a.fusion_decisions.size(), 1u);
  EXPECT_TRUE(a.fusion_decisions[0].fused);
  // One pragma, one loop, both calls reinserted inside it.
  std::size_t first =
      a.final_source.find("#pragma omp parallel for");
  ASSERT_NE(first, std::string::npos) << a.final_source;
  EXPECT_EQ(a.final_source.find("#pragma omp parallel for", first + 1),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("scale("), std::string::npos);
  EXPECT_NE(a.final_source.find("shift("), std::string::npos);
}

TEST(Chain, CrossingDependenceBlocksFusionWithReason) {
  // The second loop reads what the first one writes at a shifted
  // index, so fusing would break the producer/consumer order. The
  // decision log must carry the rejection and both loops still
  // parallelize on their own.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 2.0f * x; }\n"
      "void k(float* a, float* b, float* x, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i] = scale(x[i]);\n"
      "  for (int j = 0; j < n; j++)\n"
      "    b[j] = a[j + 1];\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.fusion_decisions.size(), 1u);
  EXPECT_FALSE(a.fusion_decisions[0].fused);
  EXPECT_NE(a.fusion_decisions[0].reason.find("fusion-preventing"),
            std::string::npos)
      << a.fusion_decisions[0].reason;
  ASSERT_EQ(a.scops.size(), 2u);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_TRUE(a.scops[1].parallelized);
  EXPECT_EQ(a.scops[0].fused_loops, 0u);
}

TEST(Chain, FusionNeverFeedsAWrittenArrayToAPureCall) {
  // Fused, the first body's write of `a` would meet the second body's
  // pure call reading `a[i + 1]` behind its placeholder: the Listing-5
  // conflict the checker rejects in a written nest. Both loops stay
  // apart, and each parallelizes on its own.
  ChainArtifacts a = run_pure_chain(
      "pure int peek(pure int* v, int i) { return v[i] + v[i + 1]; }\n"
      "void k(int* a, int* b, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i] = 0;\n"
      "  for (int j = 0; j < n; j++)\n"
      "    b[j] = peek(a, j);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.fusion_decisions.size(), 1u);
  EXPECT_FALSE(a.fusion_decisions[0].fused);
  EXPECT_NE(a.fusion_decisions[0].reason.find("'a'"), std::string::npos)
      << a.fusion_decisions[0].reason;
  EXPECT_NE(a.fusion_decisions[0].reason.find("'peek'"), std::string::npos)
      << a.fusion_decisions[0].reason;
  ASSERT_EQ(a.scops.size(), 2u);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_TRUE(a.scops[1].parallelized);
}

TEST(Chain, WrittenBeforeReadScalarIsPrivatized) {
  // `t` is written before read on every iteration and dead after the
  // nest, so the pragma privatizes it instead of serializing.
  ChainArtifacts a = run_pure_chain(
      "pure float half(float x) { return 0.5f * x; }\n"
      "void k(float** out, float* in, float* w, int n, int m) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = half(in[i]);\n"
      "    for (int j = 0; j < m; j++)\n"
      "      out[i][j] = t * w[j];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  ASSERT_EQ(r.privatized.size(), 1u);
  EXPECT_EQ(r.privatized[0], "t");
  EXPECT_NE(a.final_source.find("private(t)"), std::string::npos)
      << a.final_source;
}

TEST(Chain, LiveOutScalarIsNotPrivatized) {
  // Same temp-carrying shape, but `t` is read after the nest: its
  // final value must survive, so privatization is off the table. The
  // outer loop stays serial; only the inner loop (where `t` is
  // read-only) may pick up a pragma.
  ChainArtifacts a = run_pure_chain(
      "pure float half(float x) { return 0.5f * x; }\n"
      "float k(float** out, float* in, float* w, int n, int m) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = half(in[i]);\n"
      "    for (int j = 0; j < m; j++)\n"
      "      out[i][j] = t * w[j];\n"
      "  }\n"
      "  return t;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].privatized.empty());
  EXPECT_EQ(a.final_source.find("private(t)"), std::string::npos)
      << a.final_source;
  // Any pragma must sit on the inner loop, after the serial outer one.
  std::size_t outer = a.final_source.find("for (int i");
  std::size_t pragma = a.final_source.find("#pragma omp");
  ASSERT_NE(outer, std::string::npos);
  if (pragma != std::string::npos) {
    EXPECT_GT(pragma, outer);
  }
}

TEST(Chain, IteratorReadAfterNestDegradesToSerial) {
  // `i` lives outside the nest (`i = 0` for-init — the exact shape
  // while-canonicalization produces) and is read after the loop. The
  // classic path would regenerate the nest over t1 without assigning i,
  // and an annotated loop would privatize it — both lose the final
  // value — so the chain must keep the nest serial and say why.
  ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return x + 1.0f; }\n"
      "float* v; float* w;\n"
      "int k(int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++)\n"
      "    w[i] = f(v[i]);\n"
      "  return i;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_FALSE(a.scops[0].transformed);
  EXPECT_NE(a.scops[0].failure_reason.find("read after"),
            std::string::npos)
      << a.scops[0].failure_reason;
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
  // The while twin hits the same guard after canonicalization.
  ChainArtifacts b = run_pure_chain(
      "pure float f(float x) { return x + 1.0f; }\n"
      "float* v; float* w;\n"
      "int k(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    w[i] = f(v[i]);\n"
      "    i++;\n"
      "  }\n"
      "  return i;\n"
      "}\n");
  ASSERT_TRUE(b.ok) << b.diagnostics.format();
  EXPECT_EQ(b.canonicalized_whiles, 1u);
  ASSERT_EQ(b.scops.size(), 1u);
  EXPECT_FALSE(b.scops[0].transformed);
  EXPECT_EQ(b.final_source.find("#pragma omp"), std::string::npos);
}

TEST(Chain, RegionPragmaPrivatizesFunctionScopeInnerIterators) {
  // C89-style iterators: `j` lives at function scope, so the region
  // pragma must carry private(j) — otherwise threads would share one j.
  ChainArtifacts a = run_pure_chain(
      "pure float cell(float v, int j) { return v + (float)j; }\n"
      "float* s; float** g;\n"
      "void k(int n, int m) {\n"
      "  int i; int j;\n"
      "  for (i = 0; i < n; i++) {\n"
      "    s[i] = 0.0f;\n"
      "    for (j = 0; j < m; j++)\n"
      "      s[i] = s[i] + cell(g[i][j], j);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].region);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_NE(
      a.final_source.find("#pragma omp parallel for private(j)"),
      std::string::npos)
      << a.final_source;
}

TEST(Chain, SiblingC89LoopsSharingAnIteratorBothParallelize) {
  // The classic C89 pattern: one `int i;` feeding two sibling loops.
  // The second loop's `i = 0` re-initialization kills the first nest's
  // final value before any read, so neither nest escapes — both must
  // keep their parallelization.
  ChainArtifacts a = run_pure_chain(
      "pure float id(float x) { return x; }\n"
      "float* a; float* b; float* x;\n"
      "void f(int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++)\n"
      "    a[i] = id(x[i]) + 1.0f;\n"
      "  for (i = 0; i < n; i++)\n"
      "    b[i] = id(x[i]) + 2.0f;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 2u);
  EXPECT_TRUE(a.scops[0].parallelized) << a.scops[0].failure_reason;
  EXPECT_TRUE(a.scops[1].parallelized) << a.scops[1].failure_reason;
}

TEST(Chain, GlobalInductionVariableKeepsNestSerial) {
  // `gi` is file-scope: another function can observe its post-loop
  // value, which the regenerated nest would never write. Must stay
  // serial even though nothing *in this function* reads gi afterwards.
  ChainArtifacts a = run_pure_chain(
      "pure float id(float x) { return x; }\n"
      "float* A; float* B; int gi;\n"
      "float f(int n) {\n"
      "  gi = 0;\n"
      "  while (gi < n) {\n"
      "    A[gi] = id(B[gi]);\n"
      "    gi += 1;\n"
      "  }\n"
      "  return 0.0f;\n"
      "}\n"
      "int reader(void) { return gi; }\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_FALSE(a.scops[0].transformed);
  EXPECT_NE(a.scops[0].failure_reason.find("lives outside the nest"),
            std::string::npos)
      << a.scops[0].failure_reason;
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
}

TEST(Chain, ImperfectNestParallelizesOuterLoopOnly) {
  ChainArtifacts a = run_pure_chain(
      "pure float cell(float v) { return v + 1.0f; }\n"
      "void k(float* s, float** g, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    s[i] = 0.0f;\n"
      "    for (int j = 0; j < m; j++)\n"
      "      s[i] = s[i] + cell(g[i][j]);\n"
      "    s[i] = s[i] * 0.5f;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].region);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_EQ(a.scops[0].parallel_loops, 1u);
  // Exactly one pragma, on the outer loop (the inner accumulation is
  // carried).
  const std::string needle = "#pragma omp parallel for";
  std::size_t count = 0;
  for (std::size_t pos = a.final_source.find(needle);
       pos != std::string::npos;
       pos = a.final_source.find(needle, pos + needle.size())) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << a.final_source;
}

// ---------------------------------------------------------------------------
// Reductions through the whole chain.
// ---------------------------------------------------------------------------

TEST(Chain, IntegerSumReductionParallelizesWithoutFlag) {
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int* out, int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i];\n"
      "  out[0] = s;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].parallelized) << a.scops[0].failure_reason;
  ASSERT_EQ(a.scops[0].reductions.size(), 1u);
  EXPECT_EQ(a.scops[0].reductions[0], "+:s");
  EXPECT_NE(a.final_source.find("reduction(+:s)"), std::string::npos)
      << a.final_source;
}

TEST(Chain, FloatSumReductionIsGatedBehindFpReductions) {
  const std::string src =
      "void k(float* a, float* out, int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i];\n"
      "  out[0] = s;\n"
      "}\n";
  // Default: OpenMP partials would reassociate the FP sum — demote, note.
  ChainArtifacts strict = run_pure_chain(src);
  ASSERT_TRUE(strict.ok) << strict.diagnostics.format();
  ASSERT_EQ(strict.scops.size(), 1u);
  EXPECT_FALSE(strict.scops[0].parallelized);
  EXPECT_TRUE(strict.scops[0].reductions.empty());
  ASSERT_FALSE(strict.scops[0].reduction_notes.empty());
  EXPECT_NE(strict.scops[0].reduction_notes[0].find("--fp-reductions"),
            std::string::npos);
  EXPECT_EQ(strict.final_source.find("reduction("), std::string::npos);
  // Opt-in: the same loop parallelizes.
  ChainOptions options;
  options.fp_reductions = true;
  ChainArtifacts relaxed = run_pure_chain(src, options);
  ASSERT_TRUE(relaxed.ok) << relaxed.diagnostics.format();
  EXPECT_TRUE(relaxed.scops[0].parallelized)
      << relaxed.scops[0].failure_reason;
  EXPECT_NE(relaxed.final_source.find("reduction(+:s)"),
            std::string::npos);
}

TEST(Chain, MinReductionNeedsNoFlag) {
  // min/max combine bit-exactly in any order: no reassociation concern.
  ChainArtifacts a = run_pure_chain(
      "void k(float* a, float* out, int n) {\n"
      "  float lo = a[0];\n"
      "  for (int i = 0; i < n; i++) lo = fminf(lo, a[i]);\n"
      "  out[0] = lo;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].parallelized) << a.scops[0].failure_reason;
  ASSERT_EQ(a.scops[0].reductions.size(), 1u);
  EXPECT_EQ(a.scops[0].reductions[0], "min:lo");
  // The combiner call itself must survive substitution (replacing it
  // with a tmpConst placeholder would erase the accumulator read).
  EXPECT_NE(a.final_source.find("fminf(lo"), std::string::npos)
      << a.final_source;
}

TEST(Chain, GuardedRegionReductionComposesScheduleAndPrivate) {
  // Imperfect nest + affine guard: the region path must compose the
  // triangular guided default with the reduction clause, and the
  // accumulator must never also appear in private(...) — GCC rejects
  // a variable listed in both.
  ChainArtifacts a = run_pure_chain(
      "pure int weight(int v) { return v * v + 1; }\n"
      "void k(int n, int cut, int g[64][64], int h[64], int* out) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    h[i] = g[i][0];\n"
      "    for (int j = 0; j < n; j++) {\n"
      "      if (j < i + cut) total = total + weight(g[i][j]);\n"
      "    }\n"
      "  }\n"
      "  out[0] = total;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.region);
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  ASSERT_EQ(r.reductions.size(), 1u);
  EXPECT_EQ(r.reductions[0], "+:total");
  EXPECT_NE(a.final_source.find(
                "schedule(guided,4) reduction(+:total)"),
            std::string::npos)
      << a.final_source;
  // No private clause may name the accumulator.
  for (std::size_t pos = a.final_source.find("private(");
       pos != std::string::npos;
       pos = a.final_source.find("private(", pos + 1)) {
    const std::size_t close = a.final_source.find(')', pos);
    const std::string clause = a.final_source.substr(pos, close - pos);
    EXPECT_EQ(clause.find("total"), std::string::npos) << clause;
  }
}

TEST(Chain, MixedReadAccumulationStaysSerialWithReason) {
  // Acceptance gate: `s = s + a[i]; b[i] = s;` exposes every prefix of
  // the sum — no exemption, no pragma, and the report says why.
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int* b, int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    s = s + a[i];\n"
      "    b[i] = s;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_FALSE(a.scops[0].parallelized);
  EXPECT_TRUE(a.scops[0].reductions.empty());
  ASSERT_FALSE(a.scops[0].reduction_notes.empty());
  EXPECT_NE(a.scops[0].reduction_notes[0].find("read elsewhere"),
            std::string::npos);
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
}

// Guards folded into region loop bounds (schedule_region): an `if` on a
// unit-step loop's own iterator that is the loop's whole pruned body
// becomes part of the loop's bounds, as CLooG's domain scan would print it.
TEST(ChainRegion, FissionedScanStartsAtItsGuard) {
  const ChainArtifacts a = run_pure_chain(
      "pure float twice(float x) { return 2.0f * x; }\n"
      "void k(float* acc, float* out, float* in, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i > 0)\n"
      "      acc[i] = acc[i - 1] + in[i];\n"
      "    out[i] = twice(in[i]);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->fissioned);
  EXPECT_EQ(r->guards_folded, 1u);
  EXPECT_NE(a.final_source.find("for (int i = 1; i < n; i++)"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("if (i > 0)"), std::string::npos)
      << a.final_source;
}

TEST(ChainRegion, PrunedThenBranchFoldsItsNegation) {
  const ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return 2.0f * x; }\n"
      "void k(float* a, float* b, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = a[i - 1] + x[i];\n"
      "    else\n"
      "      b[i] = f(x[i]);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->fissioned);
  EXPECT_EQ(r->guards_folded, 2u);
  EXPECT_NE(a.final_source.find("for (int i = 0; i < purec_min(n, m); i++)"),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("for (int i = purec_max(0, m); i < n; i++)"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("else"), std::string::npos)
      << a.final_source;
}

TEST(ChainRegion, NonConvexNegationTestsTheNegatedGuard) {
  const ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return 2.0f * x; }\n"
      "void k(float* a, float* b, float* x, int n, int m) {\n"
      "  for (int i = 1; i < n; i++) {\n"
      "    if (i < m && i > 3)\n"
      "      a[i] = a[i - 1] + x[i];\n"
      "    else\n"
      "      b[i] = f(x[i]);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("if (!(i < m && i > 3))"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("else"), std::string::npos)
      << a.final_source;
}

TEST(ChainRegion, ConjunctOffTheIteratorStaysTheGuard) {
  const ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return 2.0f * x; }\n"
      "void k(float* c, float* x, int n, int flag) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i >= 2 && flag > 0 && i < n - 1)\n"
      "      c[i] = f(x[i]);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->parallelized) << r->failure_reason;
  EXPECT_EQ(r->guards_folded, 1u);
  EXPECT_NE(a.final_source.find(
                "for (int i = 2; i < purec_min(n, n - 1); i++)"),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("if (flag > 0)"), std::string::npos)
      << a.final_source;
}

TEST(ChainRegion, IfElseWithBothBranchesKeptIsNotFolded) {
  const ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return 2.0f * x; }\n"
      "void k(float* a, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = f(x[i]);\n"
      "    else\n"
      "      a[i] = x[i];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->parallelized) << r->failure_reason;
  EXPECT_EQ(r->guards_folded, 0u);
  EXPECT_NE(a.final_source.find("for (int i = 0; i < n; i++)"),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("if (i < m)"), std::string::npos);
  EXPECT_NE(a.final_source.find("else"), std::string::npos);
}

TEST(ChainRegion, C89IteratorIsNotFolded) {
  // The iterator outlives its loop: a new lower bound would change the
  // value code after the loop reads. Read after the loop, the nest is
  // left as written; not read, it parallelizes with the guard kept.
  const char* read_after =
      "pure float f(float x) { return 2.0f * x; }\n"
      "int k(float* c, float* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) {\n"
      "    if (i > 3)\n"
      "      c[i] = f(x[i]);\n"
      "  }\n"
      "  return i;\n"
      "}\n";
  const ChainArtifacts a = run_pure_chain(read_after);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->guards_folded, 0u);
  EXPECT_NE(a.final_source.find("for (i = 0; i < n; i++)"),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("if (i > 3)"), std::string::npos);

  std::string unread = read_after;
  unread.replace(unread.find("return i;"), 9, "return 0;");
  const ChainArtifacts b = run_pure_chain(unread);
  ASSERT_TRUE(b.ok) << b.diagnostics.format();
  const ScopReport* s = scop_in(b, "k");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->parallelized) << s->failure_reason;
  EXPECT_EQ(s->guards_folded, 0u);
  EXPECT_NE(b.final_source.find("if (i > 3)"), std::string::npos)
      << b.final_source;
}

TEST(ChainRegion, StridedLoopIsNotFolded) {
  const ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return 2.0f * x; }\n"
      "void k(float* c, float* x, int n) {\n"
      "  for (int i = 0; i < n; i += 2) {\n"
      "    if (i > 5)\n"
      "      c[i] = f(x[i]);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->parallelized) << r->failure_reason;
  EXPECT_EQ(r->guards_folded, 0u);
  EXPECT_NE(a.final_source.find("if (i > 5)"), std::string::npos)
      << a.final_source;
}

TEST(ChainRegion, UnsignedOrFloatingTermsAreNotFolded) {
  // purec_min(n, m) with an unsigned n compares unsigned: a negative m
  // would no longer empty the loop. A floating bound would truncate. A
  // header that reads an unsigned name keeps the whole nest serial (with
  // the guard in place); a guard alone only stays unfolded.
  const struct {
    const char* source;
    const char* header_reason;  // nullptr: the nest parallelizes
  } shapes[] = {
      {"void k(int* c, int* x, unsigned n, int m) {\n"
       "  for (int i = 0; i < n; i++) {\n"
       "    if (i < m)\n"
       "      c[i] = f(x[i]);\n"
       "  }\n"
       "}\n",
       "loop header reads 'n' of type 'unsigned int' (emitted loops bound "
       "only signed integers)"},
      {"void k(int* c, int* x, int n, float m) {\n"
       "  for (int i = 0; i < n; i++) {\n"
       "    if (i >= m)\n"
       "      c[i] = f(x[i]);\n"
       "  }\n"
       "}\n",
       nullptr},
      {"void k(int* c, int* x, int n, int m) {\n"
       "  for (int i = 0; i < n; i++) {\n"
       "    if (i < (unsigned)m)\n"
       "      c[i] = f(x[i]);\n"
       "  }\n"
       "}\n",
       nullptr},
      {"void k(int* c, int* x, int n) {\n"
       "  for (unsigned i = 0; i < n; i++) {\n"
       "    if (i > 2)\n"
       "      c[i] = f(x[i]);\n"
       "  }\n"
       "}\n",
       "loop header reads 'i' of type 'unsigned int' (emitted loops bound "
       "only signed integers)"},
  };
  for (const auto& shape : shapes) {
    const ChainArtifacts a = run_pure_chain(
        std::string("pure int f(int v) { return 3 * v; }\n") + shape.source);
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    const ScopReport* r = scop_in(a, "k");
    ASSERT_NE(r, nullptr);
    if (shape.header_reason != nullptr) {
      EXPECT_FALSE(r->parallelized) << shape.source;
      EXPECT_EQ(r->failure_reason, shape.header_reason) << shape.source;
    } else {
      EXPECT_TRUE(r->parallelized) << shape.source << r->failure_reason;
    }
    EXPECT_EQ(r->guards_folded, 0u) << shape.source << a.final_source;
    EXPECT_NE(a.final_source.find("    if (i "), std::string::npos)
        << a.final_source;
  }
}

TEST(ChainRegion, GuardOnAPureCallIsNotFolded) {
  // The call's placeholder is a parameter to the model, but the call
  // reads i: as a loop bound it would stop the loop at the first i the
  // guard rejects instead of skipping it.
  const ChainArtifacts a = run_pure_chain(
      "pure int lim(int v) { return 40 - v; }\n"
      "void k(int* c, int* x, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < lim(i))\n"
      "      c[i] = x[i];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  const ScopReport* r = scop_in(a, "k");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->parallelized) << r->failure_reason;
  EXPECT_EQ(r->guards_folded, 0u);
  EXPECT_NE(a.final_source.find("if (i < lim(i))"), std::string::npos)
      << a.final_source;
}

TEST(ChainBounds, FloatLoopBoundLeavesTheNestUntransformed) {
  // OpenMP needs an integer loop bound: gcc rejects `t1 <= x - 1` over a
  // float `x` as an invalid controlling predicate.
  for (const char* header : {"  for (int i = 0; i < x; i++)\n",
                             "  for (int i = x; i < n; i++)\n"}) {
    const ChainArtifacts a = run_pure_chain(
        std::string("int a[100];\n"
                    "pure int sq(int v) { return v * v; }\n"
                    "void fill(float x, int n) {\n") +
        header + "    a[i] = sq(i);\n}\n");
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    const ScopReport* r = scop_in(a, "fill");
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->transformed) << header;
    EXPECT_FALSE(r->parallelized) << header;
    EXPECT_EQ(r->failure_reason,
              "loop bound reads floating-point 'x' (OpenMP loops need "
              "integer bounds)")
        << header;
    EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos)
        << a.final_source;
  }

  // A float read in the body, or in a guard, is no bound.
  const ChainArtifacts body = run_pure_chain(
      "float a[100];\n"
      "pure float sq(float v) { return v * v; }\n"
      "void fill(float y, int n) {\n"
      "  for (int i = 0; i < n; i++) a[i] = sq(i) * y;\n"
      "}\n");
  ASSERT_TRUE(body.ok) << body.diagnostics.format();
  EXPECT_TRUE(scop_in(body, "fill")->parallelized)
      << scop_in(body, "fill")->failure_reason;
}

TEST(ChainBounds, NonSignedLoopHeaderLeavesTheNestUntransformed) {
  // Emitted loops run an `int` iterator to `bound - 1`: an unsigned
  // `n - 1` wraps at n = 0, and a typedef may hide either. The reason
  // names the name and its declared type.
  const struct {
    const char* source;
    const char* reason;  // nullptr: the nest parallelizes
  } shapes[] = {
      {"void fill(unsigned n, int m) {\n"
       "  for (int j = 0; j < m; j++)\n"
       "    for (unsigned i = 0; i < n; i++) a[j][i] = sq(i + j);\n"
       "}\n",
       "loop header reads 'i' of type 'unsigned int' (emitted loops bound "
       "only signed integers)"},
      {"typedef unsigned long size_t;\n"
       "void fill(size_t n, int m) {\n"
       "  for (int j = 0; j < m; j++)\n"
       "    for (int i = 0; i < n; i++) a[j][i] = sq(i + j);\n"
       "}\n",
       "loop header reads 'n' of type 'size_t' (emitted loops bound only "
       "signed integers)"},
      {"void fill(int m) {\n"
       "  for (int j = 0; j < m; j++)\n"
       "    for (unsigned char c = 0; c < 64; c++) a[j][c] = sq(c + j);\n"
       "}\n",
       "loop header reads 'c' of type 'unsigned char' (emitted loops bound "
       "only signed integers)"},
      {"void fill(long n, int m) {\n"
       "  for (int j = 0; j < m; j++)\n"
       "    for (long i = 0; i < n; i++) a[j][i] = sq(i + j);\n"
       "}\n",
       nullptr},
  };
  for (const auto& shape : shapes) {
    const ChainArtifacts a = run_pure_chain(
        std::string("int a[64][64];\n"
                    "pure int sq(int v) { return v * v; }\n") +
        shape.source);
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    const ScopReport* r = scop_in(a, "fill");
    ASSERT_NE(r, nullptr);
    if (shape.reason == nullptr) {
      EXPECT_TRUE(r->parallelized) << shape.source << r->failure_reason;
      continue;
    }
    EXPECT_FALSE(r->transformed) << shape.source;
    EXPECT_EQ(r->failure_reason, shape.reason) << shape.source;
    EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos)
        << a.final_source;
  }

  // A pure call's placeholder in a header has no declaration: it passes.
  const ChainArtifacts call = run_pure_chain(
      "int a[64];\n"
      "pure int lim(int v) { return v + 1; }\n"
      "void fill(int n) {\n"
      "  for (int i = 0; i < lim(n); i++) a[i] = i;\n"
      "}\n");
  ASSERT_TRUE(call.ok) << call.diagnostics.format();
  EXPECT_TRUE(scop_in(call, "fill")->parallelized)
      << scop_in(call, "fill")->failure_reason;
}

}  // namespace
}  // namespace purec
