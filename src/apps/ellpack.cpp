#include "apps/ellpack.h"

#include <algorithm>
#include <vector>

namespace purec::apps {

namespace {

/// ELL storage, column-major like LAMA: entry k of row i lives at
/// values[k * rows + i]. Rows shorter than `width` are padded with
/// column 0 / value 0 (the standard ELL convention).
struct EllMatrix {
  int rows = 0;
  int width = 0;
  std::vector<float> values;
  std::vector<int> cols;
  std::vector<int> row_nnz;
  std::vector<float> x;
  std::vector<float> y;
};

double init_matrix(EllMatrix& m, const EllConfig& config) {
  Timer timer;
  const int rows = config.rows;
  m.rows = rows;
  Rng rng(0xe11ULL);

  // Banded FEM-like pattern: each row couples to a contiguous neighbor
  // window. Early/middle rows are dense (structured hexahedral region),
  // the last ~15% taper off (boundary region) — the end-of-matrix
  // imbalance of §4.3.4.
  m.row_nnz.resize(rows);
  int width = 0;
  const int tail_start = rows - rows / 7;
  for (int i = 0; i < rows; ++i) {
    int nnz = config.avg_row_nnz +
              static_cast<int>(rng.next_below(17)) - 8;  // +-8 jitter
    if (i >= tail_start) {
      // Taper towards ~1/4 of the average at the very end.
      const double fade = static_cast<double>(rows - i) /
                          static_cast<double>(rows - tail_start);
      nnz = static_cast<int>(nnz * (0.25 + 0.75 * fade));
    }
    nnz = std::max(nnz, 3);
    m.row_nnz[i] = nnz;
    width = std::max(width, nnz);
  }
  m.width = width;

  const std::size_t cells = static_cast<std::size_t>(width) * rows;
  m.values.assign(cells, 0.0f);
  m.cols.assign(cells, 0);
  for (int i = 0; i < rows; ++i) {
    const int nnz = m.row_nnz[i];
    // Symmetric-ish band around the diagonal.
    const int band_begin = std::max(0, i - nnz / 2);
    for (int k = 0; k < nnz; ++k) {
      const int col = std::min(band_begin + k, rows - 1);
      m.cols[static_cast<std::size_t>(k) * rows + i] = col;
      m.values[static_cast<std::size_t>(k) * rows + i] =
          rng.next_float(-1.0f, 1.0f);
    }
  }

  m.x.resize(rows);
  for (int i = 0; i < rows; ++i) m.x[i] = rng.next_float(0.0f, 1.0f);
  m.y.assign(rows, 0.0f);
  return timer.seconds();
}

/// The pure row dot product (kept as a call for Sequential/PureAuto —
/// indirect addressing lives inside, which is why plain PluTo cannot
/// touch this code and the pure chain can).
PUREC_NOINLINE float ell_row_dot(const float* values, const int* cols,
                                 const float* x, int row, int rows,
                                 int width) {
  float sum = 0.0f;
  for (int k = 0; k < width; ++k) {
    sum += values[static_cast<std::size_t>(k) * rows + row] *
           x[cols[static_cast<std::size_t>(k) * rows + row]];
  }
  return sum;
}

/// ICC-proxy of the same function (vectorized gather loop).
PUREC_NOINLINE PUREC_VECTORIZED float ell_row_dot_vec(
    const float* __restrict values, const int* __restrict cols,
    const float* __restrict x, int row, int rows, int width) {
  float sum = 0.0f;
  for (int k = 0; k < width; ++k) {
    sum += values[static_cast<std::size_t>(k) * rows + row] *
           x[cols[static_cast<std::size_t>(k) * rows + row]];
  }
  return sum;
}

/// Hand-written LAMA loop: dot inlined, same static schedule.
void spmv_inlined_parallel(const EllMatrix& m, float* __restrict y,
                           int threads) {
  const float* __restrict values = m.values.data();
  const int* __restrict cols = m.cols.data();
  const float* __restrict x = m.x.data();
  const int rows = m.rows;
  const int width = m.width;
#pragma omp parallel for num_threads(threads) schedule(static)
  for (int i = 0; i < rows; ++i) {
    float sum = 0.0f;
    for (int k = 0; k < width; ++k) {
      sum += values[static_cast<std::size_t>(k) * rows + i] *
             x[cols[static_cast<std::size_t>(k) * rows + i]];
    }
    y[i] = sum;
  }
}

[[nodiscard]] double checksum(const EllMatrix& m) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.y.size(); ++i) {
    sum += static_cast<double>(m.y[i]) * (1 + (i % 3));
  }
  return sum;
}

}  // namespace

const char* to_string(EllVariant variant) noexcept {
  switch (variant) {
    case EllVariant::Sequential: return "seq";
    case EllVariant::PureAuto: return "pure_auto";
    case EllVariant::HandStatic: return "hand_static";
  }
  return "?";
}

RunResult run_ell(EllVariant variant, const EllConfig& config,
                  int threads) {
  RunResult result;
  EllMatrix m;
  result.init_seconds = init_matrix(m, config);
  float* y = m.y.data();
  const auto dot =
      config.compiler == Compiler::Icc ? ell_row_dot_vec : ell_row_dot;
  const float* values = m.values.data();
  const int* cols = m.cols.data();
  const float* x = m.x.data();
  const int rows = m.rows;
  const int width = m.width;

  Timer timer;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    switch (variant) {
      case EllVariant::Sequential:
        for (int i = 0; i < rows; ++i) {
          y[i] = dot(values, cols, x, i, rows, width);
        }
        break;
      case EllVariant::PureAuto:
        // The chain's output: parallel row loop, the row dot stays a call.
#pragma omp parallel for num_threads(threads) schedule(static)
        for (int i = 0; i < rows; ++i) {
          y[i] = dot(values, cols, x, i, rows, width);
        }
        break;
      case EllVariant::HandStatic:
        spmv_inlined_parallel(m, y, threads);
        break;
    }
  }
  result.compute_seconds = timer.seconds();
  result.checksum = checksum(m);
  return result;
}

}  // namespace purec::apps
