/* Hand-tuned blocked matrix product playing Intel MKL's role in Figs. 3-5
 * (§4.3.1): 2x4-row register blocking over the contiguous k-stream, panels
 * of 64 rows split statically over the threads. No chain produces this
 * code; it is built with the ICC-proxy flags and charged the Sequential
 * init, like the paper's MKL call. */
#include <kernel_support.h>

enum { kPanel = 64 };

/* 2 rows of A x 4 rows of Bt, each pair reduced in its own accumulator. */
static void microkernel_2x4(float** A, float** Bt, float** C, int n, int i,
                            int j) {
  const float* restrict a0 = A[i];
  const float* restrict a1 = A[i + 1];
  const float* restrict b0 = Bt[j];
  const float* restrict b1 = Bt[j + 1];
  const float* restrict b2 = Bt[j + 2];
  const float* restrict b3 = Bt[j + 3];
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
  C[i][j] = s00; C[i][j + 1] = s01; C[i][j + 2] = s02; C[i][j + 3] = s03;
  C[i + 1][j] = s10; C[i + 1][j + 1] = s11;
  C[i + 1][j + 2] = s12; C[i + 1][j + 3] = s13;
}

/* Remainder rows/columns not covered by full 2x4 blocks. */
static void edge(float** A, float** Bt, float** C, int n, int i0, int i1,
                 int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      const float* restrict ra = A[i];
      const float* restrict rb = Bt[j];
      float sum = 0.0f;
      for (int k = 0; k < n; ++k) sum += ra[k] * rb[k];
      C[i][j] = sum;
    }
  }
}

static void block(float** A, float** Bt, float** C, int n, int i0, int i1,
                  int j0, int j1) {
  const int i_full = i0 + (i1 - i0) / 2 * 2;
  const int j_full = j0 + (j1 - j0) / 4 * 4;
  for (int i = i0; i < i_full; i += 2) {
    for (int j = j0; j < j_full; j += 4) microkernel_2x4(A, Bt, C, n, i, j);
  }
  if (j_full < j1) edge(A, Bt, C, n, i0, i_full, j_full, j1);
  if (i_full < i1) edge(A, Bt, C, n, i_full, i1, j0, j1);
}

/* C = A * B; returns seconds. */
double ENTRY_COMPUTE(float** A, float** Bt, float** C, int n) {
  double start = kernel_now();
  const int panels = (n + kPanel - 1) / kPanel;
#pragma omp parallel for schedule(static)
  for (int p = 0; p < panels; ++p) {
    const int i0 = p * kPanel;
    const int i1 = i0 + kPanel < n ? i0 + kPanel : n;
    for (int j0 = 0; j0 < n; j0 += kPanel) {
      const int j1 = j0 + kPanel < n ? j0 + kPanel : n;
      block(A, Bt, C, n, i0, i1, j0, j1);
    }
  }
  return kernel_now() - start;
}
