// Semantics-preserving tests of the polyhedral code generator: the
// generated nest is EXECUTED (MiniInterp) and compared element-by-element
// against the original loop.
#include <gtest/gtest.h>

#include "emit/c_printer.h"
#include "mini_interp.h"
#include "parser/parser.h"
#include "polyhedral/codegen.h"
#include "support/diagnostics.h"

namespace purec::poly {
namespace {

using testinterp::MiniInterp;

struct Prepared {
  std::unique_ptr<TranslationUnit> tu;
  const ForStmt* loop = nullptr;
  Scop scop;
  std::vector<Dependence> deps;
  Transform transform;
};

Prepared prepare(const std::string& src, const std::string& fn_name = "k") {
  Prepared out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  out.tu = std::make_unique<TranslationUnit>(parse(buf, diags));
  EXPECT_FALSE(diags.has_errors()) << diags.format(&buf);
  const FunctionDecl* fn = out.tu->find_function(fn_name);
  for (const StmtPtr& s : fn->body->stmts) {
    if (const auto* f = stmt_cast<ForStmt>(s.get())) {
      out.loop = f;
      break;
    }
  }
  ExtractionResult r = extract_scop(*out.loop);
  EXPECT_TRUE(r.ok()) << r.failure_reason;
  out.scop = std::move(*r.scop);
  out.deps = analyze_dependences(out.scop);
  out.transform = compute_schedule(out.scop, out.deps);
  return out;
}

MiniInterp fresh_env(const std::map<std::string, std::int64_t>& params,
                     const std::map<std::string, std::pair<std::size_t,
                                                           std::size_t>>&
                         array_shapes) {
  MiniInterp interp;
  interp.ints = params;
  for (const auto& [name, shape] : array_shapes) {
    MiniInterp::Array arr;
    const auto [rows, cols] = shape;
    arr.cols = cols;
    arr.data.resize(rows * std::max<std::size_t>(cols, 1));
    // Deterministic nonzero initialization so bugs show up.
    for (std::size_t i = 0; i < arr.data.size(); ++i) {
      arr.data[i] = 0.25 * static_cast<double>((i * 7 + 3) % 23) + 0.5;
    }
    interp.arrays[name] = std::move(arr);
  }
  return interp;
}

/// Runs the original loop and the generated code on identical inputs and
/// expects identical array contents.
void expect_equivalent(
    const std::string& src, const CodegenOptions& options,
    const std::map<std::string, std::int64_t>& params,
    const std::map<std::string, std::pair<std::size_t, std::size_t>>& shapes,
    bool* out_generated = nullptr) {
  Prepared p = prepare(src);
  StmtPtr generated = generate_code(p.scop, p.transform, options);
  if (out_generated != nullptr) *out_generated = generated != nullptr;
  ASSERT_NE(generated, nullptr) << "codegen returned null";

  MiniInterp reference = fresh_env(params, shapes);
  reference.run(*p.loop);
  MiniInterp subject = fresh_env(params, shapes);
  subject.run(*generated);

  for (const auto& [name, arr] : reference.arrays) {
    const auto& got = subject.arrays.at(name).data;
    ASSERT_EQ(got.size(), arr.data.size());
    for (std::size_t i = 0; i < arr.data.size(); ++i) {
      ASSERT_NEAR(got[i], arr.data[i], 1e-9)
          << "array " << name << " index " << i << "\n"
          << print_c(*generated);
    }
  }
}

CodegenOptions tiled(std::int64_t size) {
  CodegenOptions o;
  o.tile = true;
  o.tile_size = size;
  return o;
}

CodegenOptions untiled() {
  CodegenOptions o;
  o.tile = false;
  return o;
}

// ---------------------------------------------------------------------------
// Equivalence under transformation
// ---------------------------------------------------------------------------

TEST(Codegen, RectangularInitUntiled) {
  expect_equivalent(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = C[i][j] + 1.0f;\n"
      "}\n",
      untiled(), {{"n", 13}, {"m", 9}}, {{"C", {13, 9}}});
}

TEST(Codegen, RectangularInitTiled) {
  expect_equivalent(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = C[i][j] * 2.0f + 1.0f;\n"
      "}\n",
      tiled(4), {{"n", 19}, {"m", 11}}, {{"C", {19, 11}}});
}

TEST(Codegen, TileSizeLargerThanDomain) {
  expect_equivalent(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = 3.0f;\n"
      "}\n",
      tiled(64), {{"n", 5}, {"m", 7}}, {{"C", {5, 7}}});
}

TEST(Codegen, TriangularDomainTiled) {
  expect_equivalent(
      "float** L;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j <= i; j++)\n"
      "      L[i][j] = L[i][j] + 1.0f;\n"
      "}\n",
      tiled(4), {{"n", 17}}, {{"L", {17, 17}}});
}

TEST(Codegen, NonUnitStride1DEquivalence) {
  // i = 1, 3, 5, ... normalizes to a trip-count variable; the generated
  // nest must touch exactly the odd elements.
  expect_equivalent(
      "float* a;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i += 2)\n"
      "    a[i] = a[i] + 1.0f;\n"
      "}\n",
      untiled(), {{"n", 23}}, {{"a", {23, 0}}});
}

TEST(Codegen, NonUnitStrideOuterDimensionTiled) {
  expect_equivalent(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i += 3)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = C[i][j] * 2.0f + 1.0f;\n"
      "}\n",
      tiled(4), {{"n", 20}, {"m", 11}}, {{"C", {20, 11}}});
}

TEST(Codegen, NonUnitStrideInclusiveUpperBound) {
  expect_equivalent(
      "float* a;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i <= n; i += 4)\n"
      "    a[i] = 7.0f;\n"
      "}\n",
      untiled(), {{"n", 16}}, {{"a", {17, 0}}});
}

// ---------------------------------------------------------------------------
// Default schedule on imbalanced domains
// ---------------------------------------------------------------------------

TEST(Codegen, ImbalanceDetectionIsTriangularOnly) {
  const Prepared tri = prepare(
      "float** L;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j <= i; j++)\n"
      "      L[i][j] = 1.0f;\n"
      "}\n");
  EXPECT_TRUE(domain_is_imbalanced(tri.scop));
  const Prepared rect = prepare(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = 1.0f;\n"
      "}\n");
  EXPECT_FALSE(domain_is_imbalanced(rect.scop));
}

TEST(Codegen, TriangularNestDefaultsToGuidedSchedule) {
  Prepared p = prepare(
      "float** L;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j <= i; j++)\n"
      "      L[i][j] = 1.0f;\n"
      "}\n");
  // The caller reads back the clause codegen printed instead of
  // re-deriving the policy.
  CodegenOptions options;
  options.tile = false;
  std::string clause;
  StmtPtr generated = generate_code(p.scop, p.transform, options, nullptr,
                                    nullptr, &clause);
  ASSERT_NE(generated, nullptr);
  EXPECT_NE(print_c(*generated).find("schedule(guided,4)"),
            std::string::npos)
      << print_c(*generated);
  EXPECT_EQ(clause, "schedule(guided,4)");

  // An explicit user spec always wins over the imbalance default.
  options.schedule = *ScheduleSpec::parse("dynamic,1");
  StmtPtr user = generate_code(p.scop, p.transform, options, nullptr,
                               nullptr, &clause);
  ASSERT_NE(user, nullptr);
  EXPECT_NE(print_c(*user).find("schedule(dynamic,1)"), std::string::npos);
  EXPECT_EQ(print_c(*user).find("guided"), std::string::npos);
  EXPECT_EQ(clause, "schedule(dynamic,1)");

  // No parallel pragma, no clause read back.
  options.parallelize = false;
  clause = "<untouched>";
  ASSERT_NE(generate_code(p.scop, p.transform, options, nullptr, nullptr,
                          &clause),
            nullptr);
  EXPECT_EQ(clause, "<untouched>");
}

TEST(Codegen, RectangularNestKeepsNoScheduleClause) {
  Prepared p = prepare(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = 1.0f;\n"
      "}\n");
  CodegenOptions options;
  options.tile = false;
  std::string clause = "<untouched>";
  StmtPtr generated = generate_code(p.scop, p.transform, options, nullptr,
                                    nullptr, &clause);
  ASSERT_NE(generated, nullptr);
  EXPECT_EQ(print_c(*generated).find("schedule("), std::string::npos)
      << print_c(*generated);
  EXPECT_EQ(clause, "");
}

TEST(Codegen, TimeStencilSkewedAndTiledIsEquivalent) {
  // THE legality test: the skewed+tiled in-place stencil must produce
  // bitwise-identical results to sequential execution (Fig. 2).
  expect_equivalent(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n",
      tiled(4), {{"steps", 9}, {"n", 25}}, {{"a", {25, 0}}});
}

TEST(Codegen, TimeStencilUntiledSkew) {
  expect_equivalent(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.5f * (a[i - 1] + a[i + 1]);\n"
      "}\n",
      untiled(), {{"steps", 6}, {"n", 18}}, {{"a", {18, 0}}});
}

TEST(Codegen, SequentialChainStaysCorrect) {
  expect_equivalent(
      "void k(float* a, int n) {\n"
      "  for (int i = 1; i < n; i++)\n"
      "    a[i] = a[i - 1] + 1.0f;\n"
      "}\n",
      untiled(), {{"n", 40}}, {{"a", {40, 0}}});
}

TEST(Codegen, MatmulAccumulationTiled) {
  expect_equivalent(
      "float** A; float** B; float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      for (int kk = 0; kk < n; kk++)\n"
      "        C[i][j] += A[i][kk] * B[kk][j];\n"
      "}\n",
      tiled(4), {{"n", 10}},
      {{"A", {10, 10}}, {"B", {10, 10}}, {"C", {10, 10}}});
}

TEST(Codegen, MultiStatementBodyPreservesOrder) {
  expect_equivalent(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    a[i] = a[i] + 1.0f;\n"
      "    b[i] = a[i] * 2.0f;\n"
      "  }\n"
      "}\n",
      untiled(), {{"n", 15}}, {{"a", {15, 0}}, {"b", {15, 0}}});
}

TEST(Codegen, ParameterizedOffsetsAndBounds) {
  expect_equivalent(
      "float* a; float* b;\n"
      "void k(int lo, int hi) {\n"
      "  for (int i = lo; i < hi; i++)\n"
      "    a[i] = b[i] + 1.0f;\n"
      "}\n",
      untiled(), {{"lo", 3}, {"hi", 14}}, {{"a", {20, 0}}, {"b", {20, 0}}});
}

// Parameterized sweep over tile sizes for the skewed stencil — the tiling
// edge cases (tile boundary coincides with skew diagonal) all must hold.
class TileSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(TileSizeSweep, SkewedStencilAllTileSizes) {
  expect_equivalent(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n",
      tiled(GetParam()), {{"steps", 7}, {"n", 21}}, {{"a", {21, 0}}});
}

INSTANTIATE_TEST_SUITE_P(Sizes, TileSizeSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 32));

// ---------------------------------------------------------------------------
// Pragma placement
// ---------------------------------------------------------------------------

TEST(Codegen, ParallelPragmaOnOutermostForParallelNest) {
  Prepared p = prepare(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "}\n");
  CodegenOptions o = tiled(8);
  o.parallelize = true;
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  const std::size_t pragma_pos = text.find("#pragma omp parallel for");
  const std::size_t first_for = text.find("for (");
  ASSERT_NE(pragma_pos, std::string::npos) << text;
  EXPECT_LT(pragma_pos, first_for) << text;
}

TEST(Codegen, NoPragmaWhenParallelizationDisabled) {
  Prepared p = prepare(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++) C[i][j] = 0.0f;\n"
      "}\n");
  CodegenOptions o = tiled(8);
  o.parallelize = false;
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  EXPECT_EQ(print_c(*generated).find("#pragma omp"), std::string::npos);
}

TEST(Codegen, SimdPragmaInSicaMode) {
  Prepared p = prepare(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++) C[i][j] = 0.0f;\n"
      "}\n");
  CodegenOptions o = tiled(8);
  o.simd = true;
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  EXPECT_NE(print_c(*generated).find("#pragma omp simd"),
            std::string::npos);
}

TEST(Codegen, InnerParallelLoopGetsPragma) {
  // Outer dimension sequential (a[i][j] depends on a[i-1][j]), inner
  // parallel: the pragma must land on the inner point loop.
  Prepared p = prepare(
      "float** a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[i][j] = a[i - 1][j] + b[j];\n"
      "}\n");
  ASSERT_FALSE(p.transform.parallel[0]);
  ASSERT_TRUE(p.transform.parallel[1]);
  StmtPtr generated = generate_code(p.scop, p.transform, untiled());
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  const std::size_t pragma_pos = text.find("#pragma omp parallel for");
  ASSERT_NE(pragma_pos, std::string::npos) << text;
  // The pragma must come after the first (sequential) loop header.
  EXPECT_GT(pragma_pos, text.find("for (")) << text;
}

TEST(Codegen, InnermostParallelLoopTakesParallelForSimd) {
  // Only the innermost loop is parallel, so it takes the combined
  // `parallel for simd`; a standalone `#pragma omp simd` stacked on top
  // of `parallel for` would not compile.
  Prepared p = prepare(
      "float** a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[i][j] = a[i - 1][j] + b[j];\n"
      "}\n");
  ASSERT_FALSE(p.transform.parallel[0]);
  ASSERT_TRUE(p.transform.parallel[1]);
  CodegenOptions o = untiled();
  o.simd = true;
  std::size_t simd_loops = 7;
  StmtPtr generated = generate_code(p.scop, p.transform, o, nullptr,
                                    nullptr, nullptr, &simd_loops);
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  const std::size_t combined = text.find("#pragma omp parallel for simd\n");
  ASSERT_NE(combined, std::string::npos) << text;
  // The combined pragma sits on the inner loop, after the serial header.
  EXPECT_GT(combined, text.find("for (")) << text;
  EXPECT_EQ(text.find("#pragma omp simd"), std::string::npos) << text;
  EXPECT_EQ(simd_loops, 1u);

  // Without the hint it is plain `parallel for`, still counted.
  o.simd = false;
  simd_loops = 7;
  generated = generate_code(p.scop, p.transform, o, nullptr, nullptr,
                            nullptr, &simd_loops);
  ASSERT_NE(generated, nullptr);
  EXPECT_EQ(print_c(*generated).find(" simd"), std::string::npos);
  EXPECT_EQ(simd_loops, 1u);
}

TEST(Codegen, OneDimensionalLoopTakesParallelForSimdOnlyWhenParallel) {
  Prepared p = prepare(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) a[i] = b[i];\n"
      "}\n");
  CodegenOptions o = untiled();
  o.simd = true;
  std::size_t simd_loops = 7;
  StmtPtr generated = generate_code(p.scop, p.transform, o, nullptr,
                                    nullptr, nullptr, &simd_loops);
  ASSERT_NE(generated, nullptr);
  std::string text = print_c(*generated);
  EXPECT_NE(text.find("#pragma omp parallel for simd\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("#pragma omp simd"), std::string::npos) << text;
  EXPECT_EQ(simd_loops, 1u);

  // A serial 1-D loop (`--no-parallel`) gets no hint, not even in sica.
  o.parallelize = false;
  simd_loops = 7;
  generated = generate_code(p.scop, p.transform, o, nullptr, nullptr,
                            nullptr, &simd_loops);
  ASSERT_NE(generated, nullptr);
  text = print_c(*generated);
  EXPECT_EQ(text.find("#pragma omp"), std::string::npos) << text;
  EXPECT_EQ(simd_loops, 0u);
}

TEST(Codegen, SimdLoopsCountedWhetherOrNotEmitted) {
  Prepared p = prepare(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++) C[i][j] = 0.0f;\n"
      "}\n");
  for (const bool simd : {false, true}) {
    CodegenOptions o = tiled(8);
    o.simd = simd;
    std::size_t simd_loops = 7;
    StmtPtr generated = generate_code(p.scop, p.transform, o, nullptr,
                                      nullptr, nullptr, &simd_loops);
    ASSERT_NE(generated, nullptr);
    EXPECT_EQ(simd_loops, 1u);
    EXPECT_EQ(print_c(*generated).find("#pragma omp simd") !=
                  std::string::npos,
              simd);
  }
}

TEST(Codegen, InPlaceStencilStaysSequentialButTiled) {
  // The Fig. 2 in-place stencil: skewed + tiled, but no point-parallel
  // dimension exists, so no OpenMP pragma may be emitted (emitting one
  // would be a miscompile).
  Prepared p = prepare(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n");
  StmtPtr generated = generate_code(p.scop, p.transform, tiled(8));
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  EXPECT_EQ(text.find("#pragma omp parallel"), std::string::npos) << text;
  EXPECT_NE(text.find("floord"), std::string::npos) << text;
}

TEST(Codegen, ScheduleClauseAppended) {
  Prepared p = prepare(
      "float* out;\n"
      "void k(int n) { for (int p = 0; p < n; p++) out[p] = 1.0f; }\n");
  CodegenOptions o = untiled();
  o.schedule = {OmpScheduleKind::Dynamic, 1};
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  EXPECT_NE(print_c(*generated)
                .find("#pragma omp parallel for schedule(dynamic,1)"),
            std::string::npos);
}

TEST(Codegen, GuidedScheduleNormalizedIntoPragma) {
  Prepared p = prepare(
      "float* out;\n"
      "void k(int n) { for (int p = 0; p < n; p++) out[p] = 1.0f; }\n");
  CodegenOptions o = untiled();
  // The CLI grammar round-trip: "guided,8" parses, codegen normalizes.
  o.schedule = *ScheduleSpec::parse("guided,8");
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  EXPECT_NE(print_c(*generated)
                .find("#pragma omp parallel for schedule(guided,8)"),
            std::string::npos);
}

TEST(Codegen, ReductionClauseOnParallelPragma) {
  Prepared p = prepare(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i] * b[i];\n"
      "}\n");
  ASSERT_TRUE(p.transform.parallel[0]);
  StmtPtr generated = generate_code(p.scop, p.transform, untiled());
  ASSERT_NE(generated, nullptr);
  EXPECT_NE(print_c(*generated)
                .find("#pragma omp parallel for reduction(+:s)"),
            std::string::npos)
      << print_c(*generated);
}

TEST(Codegen, ReductionClauseComposesAfterSchedule) {
  // Clause order is pinned: schedule first, then reduction — and the
  // user's --schedule must win over any default.
  Prepared p = prepare(
      "float* a;\n"
      "void k(int n) {\n"
      "  float s = 1.0f;\n"
      "  for (int i = 0; i < n; i++) s = s * a[i];\n"
      "}\n");
  CodegenOptions o = untiled();
  o.schedule = {OmpScheduleKind::Dynamic, 1};
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  EXPECT_NE(
      print_c(*generated)
          .find("#pragma omp parallel for schedule(dynamic,1) "
                "reduction(*:s)"),
      std::string::npos)
      << print_c(*generated);
}

TEST(Codegen, MinReductionClauseInSicaMode) {
  // SICA's simd pragma needs the reduction clause too — a bare
  // `#pragma omp simd` over `lo = fminf(lo, ...)` would race on lo.
  Prepared p = prepare(
      "float* a;\n"
      "void k(int n) {\n"
      "  float lo = 0.0f;\n"
      "  for (int i = 0; i < n; i++) lo = fminf(lo, a[i]);\n"
      "}\n");
  CodegenOptions o = untiled();
  o.simd = true;
  StmtPtr generated = generate_code(p.scop, p.transform, o);
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  // The 1-D loop takes both, combined, with the clause once.
  EXPECT_NE(text.find("#pragma omp parallel for simd reduction(min:lo)\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("#pragma omp simd"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// collapse(2) on fully parallel rectangular tile bands
// ---------------------------------------------------------------------------

/// The parallel pragma text of a tiled generation, plus the reported
/// collapse count.
std::string tiled_pragma(const std::string& src, std::size_t* collapse) {
  Prepared p = prepare(src);
  StmtPtr generated =
      generate_code(p.scop, p.transform, tiled(8), nullptr, collapse);
  EXPECT_NE(generated, nullptr);
  if (generated == nullptr) return {};
  const std::string text = print_c(*generated);
  const std::size_t at = text.find("#pragma omp parallel for");
  return at == std::string::npos ? std::string()
                                 : text.substr(at, text.find('\n', at) - at);
}

TEST(Codegen, RectangularParallelTileBandCollapses) {
  std::size_t collapse = 0;
  const std::string pragma = tiled_pragma(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = 1.0f;\n"
      "}\n",
      &collapse);
  EXPECT_EQ(pragma, "#pragma omp parallel for collapse(2)");
  EXPECT_EQ(collapse, 2u);
}

TEST(Codegen, DelinearizedFillTilesCollapsesAndStaysEquivalent) {
  const std::string src =
      "void k(float* a, int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      a[i * m + j] = a[i * m + j] * 2.0f + 1.0f;\n"
      "}\n";
  std::size_t collapse = 0;
  EXPECT_EQ(tiled_pragma(src, &collapse),
            "#pragma omp parallel for collapse(2)");
  EXPECT_EQ(collapse, 2u);
  expect_equivalent(src, tiled(4), {{"n", 7}, {"m", 11}}, {{"a", {77, 0}}});
}

TEST(Codegen, TriangularTileBandDoesNotCollapse) {
  // The t2t bound reads t1t (the triangular_guided shape): OpenMP's
  // collapse needs a rectangular iteration space.
  std::size_t collapse = 7;
  const std::string pragma = tiled_pragma(
      "float** L;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j <= i; j++)\n"
      "      L[i][j] = 1.0f;\n"
      "}\n",
      &collapse);
  ASSERT_FALSE(pragma.empty());
  EXPECT_EQ(pragma.find("collapse"), std::string::npos) << pragma;
  EXPECT_EQ(collapse, 0u);
}

TEST(Codegen, TileBandCarriedAtSecondDimensionDoesNotCollapse) {
  // Rows are independent, columns carry a[i][j - 1] -> a[i][j]: only the
  // outer tile loop may be spread over threads.
  Prepared p = prepare(
      "float** a;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 1; j < n; j++)\n"
      "      a[i][j] = a[i][j - 1] + 1.0f;\n"
      "}\n");
  ASSERT_TRUE(p.transform.parallel[0]);
  ASSERT_FALSE(p.transform.parallel[1]);
  ASSERT_GE(p.transform.band_size, 2u);
  std::size_t collapse = 7;
  StmtPtr generated =
      generate_code(p.scop, p.transform, tiled(8), nullptr, &collapse);
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  EXPECT_NE(text.find("#pragma omp parallel for\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("collapse"), std::string::npos) << text;
  EXPECT_EQ(collapse, 0u);
}

TEST(Codegen, GeneratedBoundsUseHelpers) {
  Prepared p = prepare(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++) C[i][j] = 0.0f;\n"
      "}\n");
  StmtPtr generated = generate_code(p.scop, p.transform, tiled(32));
  ASSERT_NE(generated, nullptr);
  const std::string text = print_c(*generated);
  EXPECT_NE(text.find("floord"), std::string::npos) << text;
  EXPECT_NE(codegen_prelude().find("#define floord"), std::string::npos);
  EXPECT_NE(codegen_prelude().find("#define ceild"), std::string::npos);
}

}  // namespace
}  // namespace purec::poly
