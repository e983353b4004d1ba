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
#pragma omp parallel for
    for (int t1 = 1; t1 <= n - 2; t1++)
    {
#pragma omp simd
      for (int t2 = 1; t2 <= n - 2; t2++)
      {
        nxt[t1][t2] = 0.25f * (cur[t1 - 1][t2] + cur[t1 + 1][t2] + cur[t1][t2 - 1] + cur[t1][t2 + 1]);
      }
    }
  }
}
