#include "apps/heat.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace purec::apps {

namespace {

/// The pure stencil function, kept as a real call for the Pure variant.
PUREC_NOINLINE float stencil_point(const float* grid, int n, int i, int j) {
  const std::size_t row = static_cast<std::size_t>(i) * n;
  return 0.25f * (grid[row - n + j] + grid[row + n + j] + grid[row + j - 1] +
                  grid[row + j + 1]);
}

/// ICC-proxy: per-row stencil with the call inlined and vectorized.
PUREC_NOINLINE PUREC_VECTORIZED void stencil_row_vectorized(
    const float* __restrict src, float* __restrict dst, int n, int i) {
  const std::size_t row = static_cast<std::size_t>(i) * n;
  for (int j = 1; j < n - 1; ++j) {
    dst[row + j] = 0.25f * (src[row - n + j] + src[row + n + j] +
                            src[row + j - 1] + src[row + j + 1]);
  }
}

struct Grids {
  int n = 0;
  std::vector<float> cur;
  std::vector<float> nxt;

  void heat_source() {
    // The paper's plate is "permanently heated at one point on one side".
    cur[static_cast<std::size_t>(n / 2) * n] = 100.0f;
  }
};

double init_grids(Grids& g, int n) {
  Timer timer;
  g.n = n;
  g.cur.assign(static_cast<std::size_t>(n) * n, 0.0f);
  g.nxt.assign(static_cast<std::size_t>(n) * n, 0.0f);
  g.heat_source();
  return timer.seconds();
}

[[nodiscard]] double checksum(const Grids& g) {
  double sum = 0.0;
  for (std::size_t i = 0; i < g.cur.size(); ++i) {
    sum += static_cast<double>(g.cur[i]) * (1 + (i % 7));
  }
  return sum;
}

/// One Jacobi step over rows [r0, r1), function-call style.
void step_rows_calls(const Grids& g, float* dst, int r0, int r1) {
  const int n = g.n;
  const float* src = g.cur.data();
  for (int i = r0; i < r1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      dst[static_cast<std::size_t>(i) * n + j] =
          stencil_point(src, n, i, j);
    }
  }
}

/// One Jacobi step over rows [r0, r1), inlined scalar (PluTo, GCC).
void step_rows_inlined(const Grids& g, float* __restrict dst, int r0,
                       int r1) {
  const int n = g.n;
  const float* __restrict src = g.cur.data();
  for (int i = r0; i < r1; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * n;
    for (int j = 1; j < n - 1; ++j) {
      dst[row + j] = 0.25f * (src[row - n + j] + src[row + n + j] +
                              src[row + j - 1] + src[row + j + 1]);
    }
  }
}

void one_step(Grids& g, HeatVariant variant, Compiler compiler,
              int threads) {
  const int n = g.n;
  float* dst = g.nxt.data();
  const auto rows = [&](int a, int b) {
    switch (variant) {
      case HeatVariant::Sequential:
      case HeatVariant::Pure:
        if (compiler == Compiler::Icc) {
          for (int i = a; i < b; ++i) {
            stencil_row_vectorized(g.cur.data(), dst, n, i);
          }
        } else {
          step_rows_calls(g, dst, a, b);
        }
        return;
      case HeatVariant::Pluto:
        // PluTo inlines; ICC's vectorization "does not have a positive
        // impact on this application" (§4.3.2), so both compilers run the
        // scalar inlined kernel.
        step_rows_inlined(g, dst, a, b);
        return;
    }
  };
  if (variant == HeatVariant::Sequential) {
    rows(1, n - 1);
  } else {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (int i = 1; i < n - 1; ++i) rows(i, i + 1);
  }
  std::swap(g.cur, g.nxt);
  g.heat_source();
}

}  // namespace

const char* to_string(HeatVariant variant) noexcept {
  switch (variant) {
    case HeatVariant::Sequential: return "seq";
    case HeatVariant::Pure: return "pure";
    case HeatVariant::Pluto: return "pluto";
  }
  return "?";
}

RunResult run_heat(HeatVariant variant, const HeatConfig& config,
                   int threads) {
  RunResult result;
  Grids g;
  result.init_seconds = init_grids(g, config.n);
  Timer timer;
  for (int s = 0; s < config.steps; ++s) {
    one_step(g, variant, config.compiler, threads);
  }
  result.compute_seconds = timer.seconds();
  result.checksum = checksum(g);
  return result;
}

}  // namespace purec::apps
