#include <stdio.h>
#include <stdlib.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
void spread(float* A, int m, int n)
{
  for (int i = 1; i < m; i++)
    for (int j = 0; j < n; j++)
      A[i * n + j] = A[i] + 1.0f;
}
int main()
{
  int m = 32;
  int n = 4;
  float* A = (float*)malloc(m * n * sizeof(float));
  for (int i = 0; i < m * n; i++)
    A[i] = (float)(i % 5);
  spread(A, m, n);
  double checksum = 0.0;
  for (int i = 0; i < m * n; i++)
    checksum += (double)A[i] * (i % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
