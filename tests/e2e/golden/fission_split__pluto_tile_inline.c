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
void split(float* acc, float* out, float* in, int n)
{
  {
    for (int i = 1; i < n; i++)
    {
      acc[i] = acc[i - 1] + in[i];
    }
    {
#pragma omp parallel for simd
      for (int i = 0; i < n; i++)
      {
        out[i] = 2.0f * in[i];
      }
    }
  }
}
int main()
{
  int n = 4096;
  float* acc = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      in[t1] = (float)((t1 * 7 + 3) % 23);
      acc[t1] = 0.0f;
    }
  }
  acc[0] = in[0];
  split(acc, out, in, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)acc[t1] * (t1 % 5) + (double)out[t1];
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
