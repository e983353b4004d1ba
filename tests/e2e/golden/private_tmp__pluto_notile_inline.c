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
float half(float x)
{
  return 0.5f * x;
}
void sweep(float** out, float* in, float* w, int n, int m)
{
  float t;
  {
#pragma omp parallel for private(t)
    for (int i = 0; i < n; i++)
    {
      t = 0.5f * in[i];
      {
#pragma omp simd
        for (int j = 0; j < m; j++)
          out[i][j] = t * w[j];
      }
    }
  }
}
int main()
{
  int n = 256;
  int m = 64;
  float** out = (float**)malloc(n * sizeof(float*));
  float* in = (float*)malloc(n * sizeof(float));
  float* w = (float*)malloc(m * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = (float*)malloc(m * sizeof(float));
      in[t1] = (float)((t1 * 3 + 1) % 19);
    }
  }
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= m - 1; t1++)
    {
      w[t1] = (float)((t1 * 5 + 2) % 13);
    }
  }
  sweep(out, in, w, n, m);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
      for (int t2 = 0; t2 <= m - 1; t2++)
      {
        checksum += (double)out[t1][t2] * ((t1 + t2) % 3);
      }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
