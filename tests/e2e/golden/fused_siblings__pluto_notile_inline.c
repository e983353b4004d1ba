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
float scale(float x)
{
  return 2.0f * x;
}
float shift(float x)
{
  return x + 3.0f;
}
void both(float* a, float* b, float* x, int n)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      a[t1] = 2.0f * x[t1];
      b[t1] = x[t1] + 3.0f;
    }
  }
}
int main()
{
  int n = 4096;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      x[t1] = (float)((t1 * 11 + 2) % 31);
    }
  }
  both(a, b, x, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)a[t1] + (double)b[t1] * 0.5;
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
