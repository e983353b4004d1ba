/* Triangular nest: the inner trip count grows with the outer iterator, so
 * codegen picks schedule(guided,4) when no --schedule is given.
 * argv: n reps s. */
#include <stdio.h>
#include <stdlib.h>

float **L, **U2;

pure float combine(pure float** u, int i, int j) {
  return u[i][j] + u[j][i];
}

void fold(int n) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j <= i; j++)
      L[i][j] = combine((pure float**)U2, i, j);
}

int main(int argc, char** argv) {
  if (argc != 4) return 2;
  int n = atoi(argv[1]);
  int reps = atoi(argv[2]);
  int s = atoi(argv[3]);
  L = (float**)malloc(n * sizeof(float*));
  U2 = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    L[i] = (float*)malloc(n * sizeof(float));
    U2[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      L[i][j] = 0.0f;
      U2[i][j] = (float)((i * 11 + j * 5 + s) % 17) * 0.125f;
    }
  }
  for (int r = 0; r < reps; r++) fold(n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)L[i][j] * ((i + 2 * j) % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
