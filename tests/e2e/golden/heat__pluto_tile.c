#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float** cur;
float** nxt;
float stencil(float* const *g, int i, int j)
{
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}
void step(int n)
{
  {
#pragma omp parallel for collapse(2)
    for (int t1t = 0; t1t <= floord(n - 2, 32); t1t++)
      for (int t2t = 0; t2t <= floord(n - 2, 32); t2t++)
        for (int t1 = purec_max(1, 32 * t1t); t1 <= purec_min(n - 2, 32 * t1t + 31); t1++)
        {
#pragma omp simd
          for (int t2 = purec_max(1, 32 * t2t); t2 <= purec_min(n - 2, 32 * t2t + 31); t2++)
          {
            nxt[t1][t2] = stencil((float* const *)cur, t1, t2);
          }
        }
  }
}
