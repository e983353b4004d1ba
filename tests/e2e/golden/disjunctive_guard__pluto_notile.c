#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float twice(float x)
{
  return 2.0f * x;
}
void mask(float* out, float* in, int n, int m)
{
  {
#pragma omp parallel for simd
    for (int i = 0; i < n; i++)
    {
      if (i < m || i > m + 4)
        out[i] = twice(in[i]);
      else
        out[i] = 0.0f;
    }
  }
}
int main()
{
  int n = 4096;
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      in[t1] = (float)((t1 * 13 + 7) % 29);
    }
  }
  mask(out, in, n, n / 2);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)out[t1] * (t1 % 7 + 1);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
