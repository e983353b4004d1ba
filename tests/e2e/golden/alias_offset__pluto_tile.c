#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
int main()
{
  int a[32769];
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= 32768; t1++)
    {
      a[t1] = (t1 * 7 + 3) % 13;
    }
  }
  int* p = &a[1];
  {
    for (int t1 = 0; t1 <= 32767; t1++)
    {
      p[t1] = (a[t1] * 3 + t1) % 1009;
    }
  }
  long checksum = 0;
  {
#pragma omp parallel for simd reduction(+:checksum)
    for (int t1 = 0; t1 <= 32768; t1++)
    {
      checksum += (long)a[t1] * (t1 % 9);
    }
  }
  printf("checksum %ld\n", checksum);
  return 0;
}
