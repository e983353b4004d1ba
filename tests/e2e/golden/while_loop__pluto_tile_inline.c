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
float blend(float u, float v)
{
  return 0.6f * u + 0.4f * v;
}
void mix(float* out, float* p, float* q, int n)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = 0.6f * p[t1] + 0.4f * q[t1];
    }
  }
}
int main()
{
  int n = 4096;
  float* out = (float*)malloc(n * sizeof(float));
  float* p = (float*)malloc(n * sizeof(float));
  float* q = (float*)malloc(n * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = 0.0f;
      p[t1] = (float)((t1 * 5 + 3) % 23) * 0.25f;
      q[t1] = (float)((t1 * 9 + 7) % 31) * 0.125f;
    }
  }
  mix(out, p, q, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)out[t1] * (t1 % 11);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
