/* Scalar privatization: `t` is written before it is read in every outer
 * iteration and dead after the nest, so the outer loop parallelizes with
 * private(t). argv: n m reps s. */
#include <stdio.h>
#include <stdlib.h>

pure float half(float x) {
  return 0.5f * x;
}

void sweep(float** out, float* in, float* w, int n, int m) {
  float t;
  for (int i = 0; i < n; i++) {
    t = half(in[i]);
    for (int j = 0; j < m; j++)
      out[i][j] = t * w[j];
  }
}

int main(int argc, char** argv) {
  if (argc != 5) return 2;
  int n = atoi(argv[1]);
  int m = atoi(argv[2]);
  int reps = atoi(argv[3]);
  int s = atoi(argv[4]);
  float** out = (float**)malloc(n * sizeof(float*));
  float* in = (float*)malloc(n * sizeof(float));
  float* w = (float*)malloc(m * sizeof(float));
  for (int i = 0; i < n; i++) {
    out[i] = (float*)malloc(m * sizeof(float));
    in[i] = (float)((i * 3 + s) % 19);
  }
  for (int j = 0; j < m; j++)
    w[j] = (float)((j * 5 + s) % 13);
  for (int r = 0; r < reps; r++) sweep(out, in, w, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < m; j++)
      checksum += (double)out[i][j] * ((i + j) % 3);
  printf("checksum %.6f\n", checksum);
  return 0;
}
