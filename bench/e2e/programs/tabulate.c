/* Memoization workload: `shade` is an iterative pure function of one int
 * that also reads the scalar global `gain`, so its memo thunk keys on the
 * argument and the global snapshot. The number of distinct keys sets the
 * table's hit ratio. argv: n keys a b — calls, distinct-key range, and a
 * seeded stride/offset (an odd stride makes keys unique while n <= keys). */
#include <stdio.h>
#include <stdlib.h>

float gain;

pure float shade(int v) {
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  for (int k = 0; k < 8; k++)
    y = 0.5f * (y + x / y);
  return y * gain;
}

void render(int* vals, float* out, int n) {
  for (int p = 0; p < n; p++)
    out[p] = shade(vals[p]);
}

int main(int argc, char** argv) {
  if (argc != 5) return 2;
  int n = atoi(argv[1]);
  long keys = atol(argv[2]);
  long a = atol(argv[3]);
  long b = atol(argv[4]);
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  for (int i = 0; i < n; i++) vals[i] = (int)((i * a + b) % keys);
  for (int i = 0; i < n; i++) out[i] = 0.0f;
  render(vals, out, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
