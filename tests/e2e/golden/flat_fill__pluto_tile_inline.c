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
float haze(int b, int p)
{
  return (float)((b * 31 + p * 7) % 13) * 0.125f;
}
void fill(float* A, int nb, int n)
{
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= nb - 1; t1++)
    {
#pragma omp simd
      for (int t2 = 0; t2 <= n - 1; t2++)
      {
        A[t1 * n + t2] = (float)((t1 * 31 + t2 * 7) % 13) * 0.125f;
      }
    }
  }
}
int main()
{
  int nb = 5;
  int n = 1000;
  float* A = (float*)malloc(nb * n * sizeof(float));
  fill(A, nb, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= nb - 1; t1++)
      for (int t2 = 0; t2 <= n - 1; t2++)
      {
        checksum += (double)A[t1 * n + t2] * ((t1 + t2) % 11);
      }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
