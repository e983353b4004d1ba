// Parameterized property sweeps over the dependence analyzer and
// scheduler: known-answer families of kernels generated from a template.
#include <gtest/gtest.h>

#include "parser/parser.h"
#include "polyhedral/schedule.h"
#include "support/diagnostics.h"
#include "support/string_utils.h"

namespace purec::poly {
namespace {

struct Analyzed {
  std::unique_ptr<TranslationUnit> tu;
  Scop scop;
  std::vector<Dependence> deps;
};

Analyzed analyze(const std::string& src) {
  Analyzed out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  out.tu = std::make_unique<TranslationUnit>(parse(buf, diags));
  EXPECT_FALSE(diags.has_errors()) << diags.format(&buf);
  const FunctionDecl* fn = out.tu->find_function("k");
  const ForStmt* loop = nullptr;
  for (const StmtPtr& s : fn->body->stmts) {
    if (const auto* f = stmt_cast<ForStmt>(s.get())) loop = f;
  }
  ExtractionResult r = extract_scop(*loop);
  EXPECT_TRUE(r.ok()) << r.failure_reason << "\n" << src;
  out.scop = std::move(*r.scop);
  out.deps = analyze_dependences(out.scop);
  return out;
}

// Property: `a[i] = a[i - K]` carries a flow dependence of distance
// exactly K, for every K.
class ShiftDistanceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShiftDistanceSweep, FlowDistanceEqualsShift) {
  const int shift = GetParam();
  const std::string src = replace_all(
      "float* a;\n"
      "void k(int n) { for (int i = K; i < n; i++) a[i] = a[i - K]; }\n",
      "K", std::to_string(shift));
  Analyzed a = analyze(src);
  bool found = false;
  for (const Dependence& d : a.deps) {
    if (d.kind != DependenceKind::Flow || d.level != 1) continue;
    ASSERT_EQ(d.distance.size(), 1u);
    ASSERT_TRUE(d.distance[0].has_value());
    EXPECT_EQ(*d.distance[0], shift);
    found = true;
  }
  EXPECT_TRUE(found) << src;
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftDistanceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Property: `a[i] = a[i + K]` (reading ahead) is an anti dependence of
// distance K; the loop is still sequential.
class AntiShiftSweep : public ::testing::TestWithParam<int> {};

TEST_P(AntiShiftSweep, AntiDistanceEqualsShift) {
  const int shift = GetParam();
  const std::string src = replace_all(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n - K; i++) a[i] = a[i + K]; }\n",
      "K", std::to_string(shift));
  Analyzed a = analyze(src);
  bool found = false;
  for (const Dependence& d : a.deps) {
    if (d.kind != DependenceKind::Anti || d.level != 1) continue;
    ASSERT_TRUE(d.distance[0].has_value());
    EXPECT_EQ(*d.distance[0], shift);
    found = true;
  }
  EXPECT_TRUE(found) << src;
  const Transform t = compute_schedule(a.scop, a.deps);
  EXPECT_FALSE(t.parallel[0]);
}

INSTANTIATE_TEST_SUITE_P(Shifts, AntiShiftSweep,
                         ::testing::Values(1, 2, 3, 5));

// Property: writes separated by a modulus never collide —
// a[M*i] = a[M*i + R] has no dependence for any 1 <= R < M.
struct StrideCase {
  int m;
  int r;
};

class StrideResidueSweep : public ::testing::TestWithParam<StrideCase> {};

TEST_P(StrideResidueSweep, ResidueClassesNeverMeet) {
  const auto [m, r] = GetParam();
  std::string src =
      "float* a;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) a[M * i] = a[M * i + R]; }\n";
  src = replace_all(src, "M", std::to_string(m));
  src = replace_all(src, "R", std::to_string(r));
  Analyzed a = analyze(src);
  for (const Dependence& d : a.deps) {
    EXPECT_FALSE(d.loop_carried(1))
        << "false dependence for M=" << m << " R=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StrideResidueSweep,
                         ::testing::Values(StrideCase{2, 1}, StrideCase{3, 1},
                                           StrideCase{3, 2}, StrideCase{4, 1},
                                           StrideCase{4, 3},
                                           StrideCase{5, 2}),
                         [](const auto& info) {
                           return 'M' + std::to_string(info.param.m) + "R" +
                                  std::to_string(info.param.r);
                         });

// 3-D nests: the 2-D heat equation under a time loop needs the double
// skew (1,0,0)/(1,1,0)/(1,0,1); the band must be fully permutable.
TEST(ThreeDimensional, TimeStencil2DSkewsToPermutableBand) {
  Analyzed a = analyze(
      "float** g;\n"
      "void k(int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      for (int j = 1; j < n - 1; j++)\n"
      "        g[i][j] = 0.2f * (g[i][j] + g[i - 1][j] + g[i + 1][j] +\n"
      "                          g[i][j - 1] + g[i][j + 1]);\n"
      "}\n");
  const Transform t = compute_schedule(a.scop, a.deps);
  EXPECT_EQ(t.band_size, 3u) << t.matrix.to_string();
  // Every chosen row weakly satisfies every dependence (permutability).
  for (std::size_t row = 0; row < 3; ++row) {
    for (const Dependence& dep : a.deps) {
      if (!dep.loop_carried(3)) continue;
      EXPECT_TRUE(weakly_satisfies(t.matrix.row(row), dep, 3))
          << "row " << row << " vs " << dep.to_string(a.scop);
    }
  }
}

TEST(ThreeDimensional, JacobiTwoGridFullyParallelSpatialDims) {
  Analyzed a = analyze(
      "float** src; float** dst;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n - 1; i++)\n"
      "    for (int j = 1; j < n - 1; j++)\n"
      "      dst[i][j] = 0.25f * (src[i - 1][j] + src[i + 1][j] +\n"
      "                           src[i][j - 1] + src[i][j + 1]);\n"
      "}\n");
  EXPECT_TRUE(a.deps.empty());
  const Transform t = compute_schedule(a.scop, a.deps);
  EXPECT_TRUE(t.parallel[0]);
  EXPECT_TRUE(t.parallel[1]);
}

// Transposed access: a[i][j] = a[j][i] — carried dependence, and the
// identity schedule must NOT mark the outer loop parallel.
TEST(Transpose, InPlaceTransposeNotOuterParallel) {
  Analyzed a = analyze(
      "float** a;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[i][j] = a[j][i];\n"
      "}\n");
  ASSERT_FALSE(a.deps.empty());
  const Transform t = compute_schedule(a.scop, a.deps);
  EXPECT_FALSE(t.parallel[0]);
}

// Reduction into a column: C[i][0] += ... carries at the j level only.
TEST(Reduction, ColumnReductionInnerSequentialOuterParallel) {
  Analyzed a = analyze(
      "float** C; float** A;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][0] += A[i][j];\n"
      "}\n");
  EXPECT_TRUE(level_is_parallel(a.deps, 1, 2));
  EXPECT_FALSE(level_is_parallel(a.deps, 2, 2));
}

}  // namespace
}  // namespace purec::poly
