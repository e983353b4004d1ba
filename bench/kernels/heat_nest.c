/* The heat sweep with the stencil inlined by hand and no pure keyword: the
 * nest standalone PluTo is given (§4.3.2). Same time-step loop as heat.c. */
#include <kernel_support.h>

static void sweep(float** cur, float** nxt, int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] =
          0.25f * (cur[i - 1][j] + cur[i + 1][j] + cur[i][j - 1] + cur[i][j + 1]);
}

/* `steps` sweeps, swapping the grids after each; returns seconds. */
double ENTRY_COMPUTE(float** cur, float** nxt, int n, int steps) {
  double start = kernel_now();
  for (int t = 0; t < steps; t++) {
    sweep(cur, nxt, n);
    float** tmp = cur;
    cur = nxt;
    nxt = tmp;
    cur[n / 2][0] = 100.0f;
  }
  return kernel_now() - start;
}
