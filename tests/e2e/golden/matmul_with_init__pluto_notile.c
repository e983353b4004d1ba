#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float** A;
void init(int n)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      A[t1] = (float*)malloc(n * sizeof(float));
    }
  }
}
