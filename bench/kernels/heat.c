/* Heat distribution on a plate held hot at one point of one side (§4.3.2,
 * Figs. 6-7): two-grid Jacobi, each cell becomes the average of its four
 * neighbours through a pure stencil function that stays a call. */
#include <stdlib.h>
#include <kernel_support.h>

static pure float stencil(pure float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

static void sweep(float** cur, float** nxt, int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil((pure float**)cur, i, j);
}

/* Allocates two zeroed n x n grids and lights the heat source; returns
 * seconds. */
double ENTRY_INIT(float** cur, float** nxt, int n) {
  double start = kernel_now();
  for (int i = 0; i < n; i++) {
    cur[i] = (float*)calloc(n, sizeof(float));
    nxt[i] = (float*)calloc(n, sizeof(float));
  }
  cur[n / 2][0] = 100.0f;
  return kernel_now() - start;
}

/* `steps` sweeps, swapping the grids after each: an odd count leaves the
 * result in `nxt`. Returns seconds. */
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

/* Position-weighted sum of an n x n grid. */
double ENTRY_CHECKSUM(float** g, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      sum += (double)g[i][j] * (1 + (i * n + j) % 7);
  return sum;
}
