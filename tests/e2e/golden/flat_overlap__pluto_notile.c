#include <stdio.h>
#include <stdlib.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
void stamp(float* A, int m, int n)
{
  for (int i = 0; i < m; i++)
    for (int j = 0; j <= n; j++)
      A[i * n + j] = (float)(i * 7 + j);
}
int main()
{
  int m = 40;
  int n = 9;
  float* A = (float*)malloc((m * n + 1) * sizeof(float));
  stamp(A, m, n);
  double checksum = 0.0;
  for (int i = 0; i < m * n + 1; i++)
    checksum += (double)A[i] * (i % 13);
  printf("checksum %.6f\n", checksum);
  return 0;
}
