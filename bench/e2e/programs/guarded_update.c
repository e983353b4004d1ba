/* Region SCoP with affine if/else guards: the guarded write to a[] covers
 * [0, m) while c[] reads a[i + m], so the guarded domains never meet and
 * the loop parallelizes. argv: n m reps s. */
#include <stdio.h>
#include <stdlib.h>

pure float scale(float v) { return 3.0f * v + 1.0f; }
pure float shift(float v) { return 0.5f * v - 2.0f; }

void split_update(float* a, float* b, float* c, float* x, int n, int m) {
  for (int i = 0; i < n; i++) {
    if (i < m)
      a[i] = scale(x[i]);
    else
      b[i] = shift(x[i]);
    c[i] = a[i + m] + b[i];
  }
}

int main(int argc, char** argv) {
  if (argc != 5) return 2;
  int n = atoi(argv[1]);
  int m = atoi(argv[2]);
  int reps = atoi(argv[3]);
  int s = atoi(argv[4]);
  float* a = (float*)malloc((n + m) * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* c = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n + m; i++) a[i] = (float)((i * 7 + s) % 19) * 0.25f;
  for (int i = 0; i < n; i++) {
    b[i] = (float)((i * 3 + s) % 13) * 0.5f;
    c[i] = 0.0f;
    x[i] = (float)((i * 11 + s) % 17) * 0.125f;
  }
  for (int r = 0; r < reps; r++) split_update(a, b, c, x, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += ((double)a[i] + (double)b[i] + (double)c[i]) * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
