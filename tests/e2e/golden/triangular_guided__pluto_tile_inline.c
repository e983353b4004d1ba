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
float** L;
float** U2;
float combine(float* const *u, int i, int j)
{
  return u[i][j] + u[j][i];
}
void fold(int n)
{
  {
#pragma omp parallel for schedule(guided,4)
    for (int t1t = 0; t1t <= floord(n - 1, 32); t1t++)
      for (int t2t = 0; t2t <= purec_min(floord(n - 1, 32), t1t); t2t++)
        for (int t1 = purec_max(purec_max(0, 32 * t1t), 32 * t2t); t1 <= purec_min(n - 1, 32 * t1t + 31); t1++)
          for (int t2 = purec_max(0, 32 * t2t); t2 <= purec_min(t1, 32 * t2t + 31); t2++)
          {
            L[t1][t2] = U2[t1][t2] + U2[t2][t1];
          }
  }
}
int main()
{
  int n = 64;
  L = (float**)malloc(n * sizeof(float*));
  U2 = (float**)malloc(n * sizeof(float*));
  {
#pragma omp parallel for
    for (int i = 0; i < n; i++)
    {
      L[i] = (float*)malloc(n * sizeof(float));
      U2[i] = (float*)malloc(n * sizeof(float));
      {
#pragma omp simd
        for (int j = 0; j < n; j++)
        {
          L[i][j] = 0.0f;
          U2[i][j] = (float)((i * 11 + j * 5) % 17) * 0.125f;
        }
      }
    }
  }
  fold(n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
      for (int t2 = 0; t2 <= n - 1; t2++)
      {
        checksum += (double)L[t1][t2] * ((t1 + 2 * t2) % 7);
      }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
