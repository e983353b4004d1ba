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
float mult(float a, float b)
{
  return a * b;
}
void dot(float* a, float* b, float* out, int n)
{
  float sum = 0.0f;
  {
#pragma omp parallel for simd reduction(+:sum)
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      sum = sum + a[t1] * b[t1];
    }
  }
  out[0] = sum;
}
int main()
{
  int n = 4096;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(1 * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      a[t1] = (float)((t1 * 7 + 3) % 11);
      b[t1] = (float)((t1 * 5 + 2) % 13);
    }
  }
  dot(a, b, out, n);
  printf("checksum %.6f\n", (double)out[0]);
  return 0;
}
