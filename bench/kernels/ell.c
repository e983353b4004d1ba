/* ELL sparse matrix-vector product, the standalone LAMA ELLMatrix kernel
 * (§4.3.4, Figs. 10-11). A synthetic banded FEM-style matrix stands in for
 * Boeing/pwtk: about `avg_nnz` nonzeros per row, stored column-major like
 * LAMA (entry k of row i at [k * rows + i], short rows padded with column
 * 0 / value 0), with a sparser tail so the static row partition is uneven
 * at the end of the matrix. */
#include <stdlib.h>
#include <kernel_support.h>

/* The row dot product; the indirect x[cols[...]] access lives inside it,
 * which is why plain PluTo cannot touch this code and the pure chain
 * can. */
static pure float ell_row_dot(pure float* values, pure int* cols,
                              pure float* x, int row, int rows, int width) {
  float sum = 0.0f;
  for (int k = 0; k < width; k++)
    sum += values[k * rows + row] * x[cols[k * rows + row]];
  return sum;
}

static void spmv(float* values, int* cols, float* x, float* y, int rows,
                 int width) {
  for (int i = 0; i < rows; i++)
    y[i] = ell_row_dot((pure float*)values, (pure int*)cols, (pure float*)x,
                       i, rows, width);
}

/* Builds the matrix, x and a zeroed y; the ELL width (the longest row) is
 * returned through `width`. Returns seconds. */
double ENTRY_INIT(int rows, int avg_nnz, float** values, int** cols,
                  float** x, float** y, int* width) {
  double start = kernel_now();
  unsigned long long seed = 0xe11ULL;
  /* Early and middle rows are dense (structured region); the last seventh
   * tapers towards a quarter of the average (boundary region). */
  int* row_nnz = (int*)malloc(rows * sizeof(int));
  int tail_start = rows - rows / 7;
  int w = 0;
  for (int i = 0; i < rows; i++) {
    int nnz = avg_nnz + (int)(splitmix64(&seed) % 17) - 8;
    if (i >= tail_start) {
      double fade = (double)(rows - i) / (double)(rows - tail_start);
      nnz = (int)(nnz * (0.25 + 0.75 * fade));
    }
    if (nnz < 3)
      nnz = 3;
    row_nnz[i] = nnz;
    if (nnz > w)
      w = nnz;
  }
  *width = w;
  *values = (float*)calloc(w * rows, sizeof(float));
  *cols = (int*)calloc(w * rows, sizeof(int));
  for (int i = 0; i < rows; i++) {
    /* Symmetric-ish band around the diagonal. */
    int band_begin = i - row_nnz[i] / 2 < 0 ? 0 : i - row_nnz[i] / 2;
    for (int k = 0; k < row_nnz[i]; k++) {
      int col = band_begin + k < rows - 1 ? band_begin + k : rows - 1;
      (*cols)[k * rows + i] = col;
      (*values)[k * rows + i] = splitmix_float(&seed, -1.0f, 1.0f);
    }
  }
  free(row_nnz);
  *x = (float*)malloc(rows * sizeof(float));
  for (int i = 0; i < rows; i++)
    (*x)[i] = splitmix_float(&seed, 0.0f, 1.0f);
  *y = (float*)calloc(rows, sizeof(float));
  return kernel_now() - start;
}

/* y = A * x, `reps` times (one SpMV is too fast to time); returns
 * seconds. */
double ENTRY_COMPUTE(float* values, int* cols, float* x, float* y, int rows,
                     int width, int reps) {
  double start = kernel_now();
  for (int r = 0; r < reps; r++)
    spmv(values, cols, x, y, rows, width);
  return kernel_now() - start;
}

/* Position-weighted sum of y. */
double ENTRY_CHECKSUM(float* y, int rows) {
  double sum = 0.0;
  for (int i = 0; i < rows; i++)
    sum += (double)y[i] * (1 + i % 3);
  return sum;
}
