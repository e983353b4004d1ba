#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
void minreduce(float* in, float* out, int n)
{
  float lo = in[0];
  {
#pragma omp parallel for simd reduction(min:lo)
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      lo = fminf(lo, in[t1]);
    }
  }
  out[0] = lo;
}
int main()
{
  int n = 4096;
  float* in = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(1 * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      in[t1] = (float)((t1 * 13 + 5) % 97) * 0.25f + 1.0f;
    }
  }
  minreduce(in, out, n);
  printf("checksum %.6f\n", (double)out[0]);
  return 0;
}
