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
float cell(float v, int j)
{
  return v * (float)(j + 1) + 1.0f;
}
void row_scan(float* s, float** g, int n, int m)
{
  {
#pragma omp parallel for
    for (int i = 0; i < n; i++)
    {
      s[i] = 0.0f;
      for (int j = 0; j < m; j++)
        s[i] = s[i] + (g[i][j] * (float)(j + 1) + 1.0f);
      s[i] = s[i] * 0.25f;
    }
  }
}
int main()
{
  int n = 256;
  int m = 64;
  float* s = (float*)malloc(n * sizeof(float));
  float** g = (float**)malloc(n * sizeof(float*));
  {
#pragma omp parallel for
    for (int i = 0; i < n; i++)
    {
      s[i] = 0.0f;
      g[i] = (float*)malloc(m * sizeof(float));
      {
#pragma omp simd
        for (int j = 0; j < m; j++)
          g[i][j] = (float)((i * 13 + j * 5) % 11) * 0.0625f;
      }
    }
  }
  row_scan(s, g, n, m);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)s[t1] * (t1 % 7);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
