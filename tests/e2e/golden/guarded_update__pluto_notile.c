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
float scale(float v)
{
  return 3.0f * v + 1.0f;
}
float shift(float v)
{
  return 0.5f * v - 2.0f;
}
void split_update(float* a, float* b, float* c, float* x, int n, int m)
{
  {
#pragma omp parallel for simd
    for (int i = 0; i < n; i++)
    {
      if (i < m)
        a[i] = scale(x[i]);
      else
        b[i] = shift(x[i]);
      c[i] = a[i + m] + b[i];
    }
  }
}
int main()
{
  int n = 2048;
  int m = 512;
  float* a = (float*)malloc((n + m) * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* c = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n + m - 1; t1++)
    {
      a[t1] = (float)((t1 * 7 + 5) % 19) * 0.25f;
    }
  }
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      b[t1] = (float)((t1 * 3 + 1) % 13) * 0.5f;
      c[t1] = 0.0f;
      x[t1] = (float)((t1 * 11 + 2) % 17) * 0.125f;
    }
  }
  split_update(a, b, c, x, n, m);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += ((double)a[t1] + (double)b[t1] + (double)c[t1]) * (t1 % 9);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
