/* Sibling fusion: two adjacent loops with matching headers and no
 * crossing dependence fuse into one parallel loop. argv: n reps s. */
#include <stdio.h>
#include <stdlib.h>

pure float scale(float x) {
  return 2.0f * x;
}

pure float shift(float x) {
  return x + 3.0f;
}

void both(float* a, float* b, float* x, int n) {
  for (int i = 0; i < n; i++)
    a[i] = scale(x[i]);
  for (int j = 0; j < n; j++)
    b[j] = shift(x[j]);
}

int main(int argc, char** argv) {
  if (argc != 4) return 2;
  int n = atoi(argv[1]);
  int reps = atoi(argv[2]);
  int s = atoi(argv[3]);
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++)
    x[i] = (float)((i * 11 + s) % 31);
  for (int r = 0; r < reps; r++) both(a, b, x, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += (double)a[i] + (double)b[i] * 0.5;
  printf("checksum %.6f\n", checksum);
  return 0;
}
