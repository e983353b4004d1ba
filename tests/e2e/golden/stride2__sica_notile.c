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
float avg2(const float* a, int j)
{
  return 0.5f * (a[j] + a[j + 1]);
}
void downsample(float* out, float* in, int n)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= floord(n - 2, 2); t1++)
    {
      out[2 * t1 + 1] = avg2((const float*)in, 2 * t1 + 1);
    }
  }
}
int main()
{
  int n = 1024;
  float* in = (float*)malloc((n + 1) * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n; t1++)
    {
      in[t1] = (float)((t1 * 7 + 3) % 23) * 0.25f;
    }
  }
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = 0.0f;
    }
  }
  downsample(out, in, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)out[t1] * (t1 % 13);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
