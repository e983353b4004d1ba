/* Keyword-free dot product, parallelized through an inferred-pure
 * combiner and reduction(+:sum) under --infer-pure --fp-reductions. Every
 * product is a small integer and the double accumulator stays far below
 * 2^53, so the sum is exact in any association order. argv: n reps s. */
#include <stdio.h>
#include <stdlib.h>

float mult(float a, float b) {
  return a * b;
}

void dot(float* a, float* b, double* out, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; i++) {
    sum = sum + mult(a[i], b[i]);
  }
  out[0] = sum;
}

int main(int argc, char** argv) {
  if (argc != 4) return 2;
  int n = atoi(argv[1]);
  int reps = atoi(argv[2]);
  int s = atoi(argv[3]);
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  double* out = (double*)malloc(1 * sizeof(double));
  for (int i = 0; i < n; i++) {
    a[i] = (float)((i * 7 + s) % 11);
    b[i] = (float)((i * 5 + s) % 13);
  }
  double checksum = 0.0;
  for (int r = 0; r < reps; r++) {
    dot(a, b, out, n - r);
    checksum = checksum + out[0];
  }
  printf("checksum %.1f\n", checksum);
  return 0;
}
