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
float damp(float v)
{
  return 0.75f * v + 0.125f;
}
void halfband(float** w, float** r, int n)
{
  {
#pragma omp parallel for schedule(guided,4)
    for (int i = 0; i < n; i++)
      for (int j = i; j < n; j += 2)
        w[i][j] = 0.75f * r[i][j] + 0.125f;
  }
}
int main()
{
  int n = 128;
  float** w = (float**)malloc(n * sizeof(float*));
  float** r = (float**)malloc(n * sizeof(float*));
  {
#pragma omp parallel for
    for (int i = 0; i < n; i++)
    {
      w[i] = (float*)malloc(n * sizeof(float));
      r[i] = (float*)malloc(n * sizeof(float));
      {
#pragma omp simd
        for (int j = 0; j < n; j++)
        {
          w[i][j] = 0.0f;
          r[i][j] = (float)((i * 17 + j * 3) % 29) * 0.0625f;
        }
      }
    }
  }
  halfband(w, r, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
      for (int t2 = 0; t2 <= n - 1; t2++)
      {
        checksum += (double)w[t1][t2] * ((t1 + 3 * t2) % 5);
      }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
