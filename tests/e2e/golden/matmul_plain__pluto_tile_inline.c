#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float** A;
float** Bt;
float** C;
float mult(float a, float b)
{
  return a * b;
}
float dot(float* a, float* b, int size)
{
  float res = 0.0f;
  {
    for (int t1 = 0; t1 <= size - 1; t1++)
    {
      res += a[t1] * b[t1];
    }
  }
  return res;
}
int main(int argc, char** argv)
{
  {
#pragma omp parallel for collapse(2)
    for (int t1t = 0; t1t <= 1; t1t++)
      for (int t2t = 0; t2t <= 1; t2t++)
        for (int t1 = purec_max(0, 32 * t1t); t1 <= purec_min(63, 32 * t1t + 31); t1++)
          for (int t2 = purec_max(0, 32 * t2t); t2 <= purec_min(63, 32 * t2t + 31); t2++)
          {
            C[t1][t2] = dot(A[t1], Bt[t2], 64);
          }
  }
  return 0;
}
