/* The manually parallelized LAMA loop (§4.3.4): the row dot inlined under
 * `#pragma omp parallel for schedule(static)`. No chain produces it: its
 * x[cols[...]] subscript is not affine. Operands as built by ell.c. */
#include <kernel_support.h>

/* y = A * x, `reps` times; returns seconds. */
double ENTRY_COMPUTE(float* restrict values, int* restrict cols,
                     float* restrict x, float* restrict y, int rows, int width,
                     int reps) {
  double start = kernel_now();
  for (int r = 0; r < reps; r++) {
#pragma omp parallel for schedule(static)
    for (int i = 0; i < rows; i++) {
      float sum = 0.0f;
      for (int k = 0; k < width; k++)
        sum += values[k * rows + i] * x[cols[k * rows + i]];
      y[i] = sum;
    }
  }
  return kernel_now() - start;
}
