#include "apps/matmul.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace purec::apps {

namespace {

// ---------------------------------------------------------------------------
// The pure functions of the paper's Listing 7, kept as real calls
// (PUREC_NOINLINE models the call boundary the chain preserves).
// ---------------------------------------------------------------------------

PUREC_NOINLINE float mult_scalar(float a, float b) { return a * b; }

/// dot() as GCC -O2 compiles it: scalar loop, real calls to mult().
PUREC_NOINLINE float dot_scalar(const float* a, const float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i) res += mult_scalar(a[i], b[i]);
  return res;
}

/// dot() as ICC compiles it: mult inlined and the loop vectorized
/// ("ICC can vectorize the extracted function", §4.3.1).
PUREC_NOINLINE PUREC_VECTORIZED float dot_vectorized(
    const float* __restrict a, const float* __restrict b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i) res += a[i] * b[i];
  return res;
}

using DotFn = float (*)(const float*, const float*, int);

[[nodiscard]] DotFn dot_for(Compiler compiler) {
  return compiler == Compiler::Icc ? dot_vectorized : dot_scalar;
}

// ---------------------------------------------------------------------------
// Storage. Row-major n x n, one flat buffer per matrix; Bt holds B
// transposed exactly like the paper's code so dot() walks rows.
// ---------------------------------------------------------------------------

struct Matrices {
  int n = 0;
  std::vector<float> a;
  std::vector<float> bt;
  std::vector<float> c;
};

void fill_row(Matrices& m, int i) {
  const int n = m.n;
  for (int j = 0; j < n; ++j) {
    m.a[static_cast<std::size_t>(i) * n + j] =
        static_cast<float>((i * 7 + j * 3) % 11) * 0.25f;
    m.bt[static_cast<std::size_t>(i) * n + j] =
        static_cast<float>((i * 5 + j * 2) % 13) * 0.5f;
    m.c[static_cast<std::size_t>(i) * n + j] = 0.0f;
  }
}

/// Initialization (the paper's malloc+fill loop). The pure chain
/// parallelized this by accident (§4.3.1); `parallel` reproduces both
/// behaviors.
double init_matrices(Matrices& m, int n, bool parallel, int threads) {
  Timer timer;
  m.n = n;
  const auto total = static_cast<std::size_t>(n) * n;
  m.a.resize(total);
  m.bt.resize(total);
  m.c.resize(total);
  if (parallel) {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (int i = 0; i < n; ++i) fill_row(m, i);
  } else {
    for (int i = 0; i < n; ++i) fill_row(m, i);
  }
  return timer.seconds();
}

[[nodiscard]] double checksum(const Matrices& m) {
  double sum = 0.0;
  const int n = m.n;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      sum += static_cast<double>(m.c[static_cast<std::size_t>(i) * n + j]) *
             ((i + 2 * j) % 5);
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Compute variants
// ---------------------------------------------------------------------------

/// Sequential / Pure: C[i][j] = dot(A[i], Bt[j]) with a real call.
void compute_row_calls(Matrices& m, DotFn dot, int i) {
  const int n = m.n;
  const float* a = m.a.data();
  const float* bt = m.bt.data();
  float* c = m.c.data();
  for (int j = 0; j < n; ++j) {
    c[static_cast<std::size_t>(i) * n + j] =
        dot(&a[static_cast<std::size_t>(i) * n],
            &bt[static_cast<std::size_t>(j) * n], n);
  }
}

/// PluTo: dot inlined into the nest, rectangular tiling, parallel over the
/// outermost tile loop. Scalar code (GCC -O2 does not vectorize this
/// reduction).
void compute_pluto_tile(const Matrices& m, float* __restrict c, int i0,
                        int i1, int j0, int j1) {
  const int n = m.n;
  const float* __restrict a = m.a.data();
  const float* __restrict bt = m.bt.data();
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      float res = 0.0f;
      const float* ra = &a[static_cast<std::size_t>(i) * n];
      const float* rb = &bt[static_cast<std::size_t>(j) * n];
      for (int k = 0; k < n; ++k) res += ra[k] * rb[k];
      c[static_cast<std::size_t>(i) * n + j] = res;
    }
  }
}

/// PluTo-SICA: same tiling, vectorized inner kernel.
PUREC_VECTORIZED void compute_sica_tile(const Matrices& m,
                                        float* __restrict c, int i0, int i1,
                                        int j0, int j1) {
  const int n = m.n;
  const float* __restrict a = m.a.data();
  const float* __restrict bt = m.bt.data();
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      float res = 0.0f;
      const float* __restrict ra = &a[static_cast<std::size_t>(i) * n];
      const float* __restrict rb = &bt[static_cast<std::size_t>(j) * n];
      for (int k = 0; k < n; ++k) res += ra[k] * rb[k];
      c[static_cast<std::size_t>(i) * n + j] = res;
    }
  }
}

void compute_tiled(Matrices& m, int tile, int threads, bool vectorized) {
  const int n = m.n;
  const int tiles_i = (n + tile - 1) / tile;
  const int tiles_j = (n + tile - 1) / tile;
  float* c = m.c.data();
#pragma omp parallel for num_threads(threads) schedule(static)
  for (int ti = 0; ti < tiles_i; ++ti) {
    const int i0 = ti * tile;
    const int i1 = std::min(i0 + tile, n);
    for (int tj = 0; tj < tiles_j; ++tj) {
      const int j0 = tj * tile;
      const int j1 = std::min(j0 + tile, n);
      if (vectorized) {
        compute_sica_tile(m, c, i0, i1, j0, j1);
      } else {
        compute_pluto_tile(m, c, i0, i1, j0, j1);
      }
    }
  }
}

/// MKL proxy: 2x4-row register blocking over the contiguous k-stream with
/// a fixed-trip fast path the compiler fully unrolls and vectorizes. Not
/// MKL, but a credible hand-tuned kernel that plays its role as the "how
/// far can tuning go" upper bound.
PUREC_VECTORIZED void mkl_microkernel_2x4(const float* __restrict a,
                                          const float* __restrict bt,
                                          float* __restrict c, int n, int i,
                                          int j) {
  // 2 rows of A x 4 rows of Bt, each pair reduced over the contiguous
  // k-stream in 8 independent vector accumulators (the compiler maps
  // these onto SIMD registers; fast-math allows the reduction split).
  const float* __restrict a0 = &a[static_cast<std::size_t>(i) * n];
  const float* __restrict a1 = &a[static_cast<std::size_t>(i + 1) * n];
  const float* __restrict b0 = &bt[static_cast<std::size_t>(j) * n];
  const float* __restrict b1 = &bt[static_cast<std::size_t>(j + 1) * n];
  const float* __restrict b2 = &bt[static_cast<std::size_t>(j + 2) * n];
  const float* __restrict b3 = &bt[static_cast<std::size_t>(j + 3) * n];
  float s00 = 0.0f, s01 = 0.0f, s02 = 0.0f, s03 = 0.0f;
  float s10 = 0.0f, s11 = 0.0f, s12 = 0.0f, s13 = 0.0f;
  for (int k = 0; k < n; ++k) {
    const float x0 = a0[k];
    const float x1 = a1[k];
    s00 += x0 * b0[k];
    s01 += x0 * b1[k];
    s02 += x0 * b2[k];
    s03 += x0 * b3[k];
    s10 += x1 * b0[k];
    s11 += x1 * b1[k];
    s12 += x1 * b2[k];
    s13 += x1 * b3[k];
  }
  float* __restrict c0 = &c[static_cast<std::size_t>(i) * n + j];
  float* __restrict c1 = &c[static_cast<std::size_t>(i + 1) * n + j];
  c0[0] = s00; c0[1] = s01; c0[2] = s02; c0[3] = s03;
  c1[0] = s10; c1[1] = s11; c1[2] = s12; c1[3] = s13;
}

/// Remainder path (edges not covered by full 2x4 blocks).
PUREC_VECTORIZED void mkl_edge(const float* __restrict a,
                               const float* __restrict bt,
                               float* __restrict c, int n, int i0, int i1,
                               int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      const float* __restrict ra = &a[static_cast<std::size_t>(i) * n];
      const float* __restrict rb = &bt[static_cast<std::size_t>(j) * n];
      float sum = 0.0f;
      for (int k = 0; k < n; ++k) sum += ra[k] * rb[k];
      c[static_cast<std::size_t>(i) * n + j] = sum;
    }
  }
}

void mkl_block(const float* __restrict a, const float* __restrict bt,
               float* __restrict c, int n, int i0, int i1, int j0, int j1) {
  const int i_full = i0 + (i1 - i0) / 2 * 2;
  const int j_full = j0 + (j1 - j0) / 4 * 4;
  for (int i = i0; i < i_full; i += 2) {
    for (int j = j0; j < j_full; j += 4) {
      mkl_microkernel_2x4(a, bt, c, n, i, j);
    }
  }
  if (j_full < j1) mkl_edge(a, bt, c, n, i0, i_full, j_full, j1);
  if (i_full < i1) mkl_edge(a, bt, c, n, i_full, i1, j0, j1);
}

void compute_mkl_proxy(Matrices& m, int threads) {
  const int n = m.n;
  constexpr int kPanel = 64;
  const int panels = (n + kPanel - 1) / kPanel;
  float* c = m.c.data();
#pragma omp parallel for num_threads(threads) schedule(static)
  for (int p = 0; p < panels; ++p) {
    const int i0 = p * kPanel;
    const int i1 = std::min(i0 + kPanel, n);
    for (int j0 = 0; j0 < n; j0 += kPanel) {
      const int j1 = std::min(j0 + kPanel, n);
      mkl_block(m.a.data(), m.bt.data(), c, n, i0, i1, j0, j1);
    }
  }
}

}  // namespace

const char* to_string(MatmulVariant variant) noexcept {
  switch (variant) {
    case MatmulVariant::Sequential: return "seq";
    case MatmulVariant::Pure: return "pure";
    case MatmulVariant::PureNoInit: return "pure_noinit";
    case MatmulVariant::Pluto: return "pluto";
    case MatmulVariant::PlutoSica: return "pluto_sica";
    case MatmulVariant::MklProxy: return "mkl_proxy";
  }
  return "?";
}

RunResult run_matmul(MatmulVariant variant, const MatmulConfig& config,
                     int threads) {
  RunResult result;
  Matrices m;
  // §4.3.1: only the Pure variant inherits the parallel allocation loop.
  const bool parallel_init = variant == MatmulVariant::Pure;
  result.init_seconds = init_matrices(m, config.n, parallel_init, threads);

  const int n = m.n;
  const DotFn dot = dot_for(config.compiler);
  Timer timer;
  switch (variant) {
    case MatmulVariant::Sequential:
      for (int i = 0; i < n; ++i) compute_row_calls(m, dot, i);
      break;
    case MatmulVariant::Pure:
    case MatmulVariant::PureNoInit:
#pragma omp parallel for num_threads(threads) schedule(static)
      for (int i = 0; i < n; ++i) compute_row_calls(m, dot, i);
      break;
    case MatmulVariant::Pluto:
      // Plain PluTo never vectorizes; ICC does not help the inlined loop
      // either (§4.3.1: "this automatic vectorization is not carried out
      // when the function is inlined").
      compute_tiled(m, config.tile, threads, /*vectorized=*/false);
      break;
    case MatmulVariant::PlutoSica:
      compute_tiled(m, config.tile, threads, /*vectorized=*/true);
      break;
    case MatmulVariant::MklProxy:
      compute_mkl_proxy(m, threads);
      break;
  }
  result.compute_seconds = timer.seconds();
  result.checksum = checksum(m);
  return result;
}

}  // namespace purec::apps
