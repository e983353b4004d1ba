#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float ell_row_dot(const float* values, const int* cols, const float* x, int row, int rows, int width)
{
  float sum = 0.0f;
  for (int k = 0; k < width; k++)
  {
    sum += values[k * rows + row] * x[cols[k * rows + row]];
  }
  return sum;
}
void ell_spmv(float* values, int* cols, float* x, float* y, int rows, int width)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= rows - 1; t1++)
    {
      y[t1] = ell_row_dot((const float*)values, (const int*)cols, (const float*)x, t1, rows, width);
    }
  }
}
