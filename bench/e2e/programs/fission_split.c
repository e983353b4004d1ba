/* Loop fission: the prefix scan carries a true dependence while the map
 * is independent, so the nest distributes into a serial scan loop and a
 * parallel map loop. argv: n reps s. Inputs are small integers; the scan
 * runs serially in both binaries, so its rounding is identical. */
#include <stdio.h>
#include <stdlib.h>

pure float twice(float x) {
  return 2.0f * x;
}

void split(float* acc, float* out, float* in, int n) {
  for (int i = 0; i < n; i++) {
    if (i > 0)
      acc[i] = acc[i - 1] + in[i];
    out[i] = twice(in[i]);
  }
}

int main(int argc, char** argv) {
  if (argc != 4) return 2;
  int n = atoi(argv[1]);
  int reps = atoi(argv[2]);
  int s = atoi(argv[3]);
  float* acc = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    in[i] = (float)((i * 7 + s) % 23);
    acc[i] = 0.0f;
  }
  acc[0] = in[0];
  for (int r = 0; r < reps; r++) split(acc, out, in, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += (double)acc[i] * (i % 5) + (double)out[i];
  printf("checksum %.6f\n", checksum);
  return 0;
}
