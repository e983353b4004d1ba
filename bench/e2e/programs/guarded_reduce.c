/* Integer reduction under an affine guard in an imperfect nest: the outer
 * loop writes h[] and folds into `total`, so the region pragma carries
 * both schedule(guided,4) and reduction(+:total). Integer sums are exact
 * in any order. argv: n cut reps s. */
#include <stdio.h>
#include <stdlib.h>

int** g;
int* h;
int* res;

pure int weight(int v) {
  return v * v + 1;
}

void fold(int n, int cut) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    h[i] = g[i][0];
    for (int j = 0; j < n; j++) {
      if (j < i + cut) {
        total = total + weight(g[i][j]);
      }
    }
  }
  res[0] = total;
}

int main(int argc, char** argv) {
  if (argc != 5) return 2;
  int n = atoi(argv[1]);
  int cut = atoi(argv[2]);
  int reps = atoi(argv[3]);
  int s = atoi(argv[4]);
  g = (int**)malloc(n * sizeof(int*));
  h = (int*)malloc(n * sizeof(int));
  res = (int*)malloc(1 * sizeof(int));
  for (int i = 0; i < n; i++) {
    g[i] = (int*)malloc(n * sizeof(int));
    for (int j = 0; j < n; j++)
      g[i][j] = (i * 5 + j * 3 + s) % 17;
  }
  long checksum = 0;
  for (int r = 0; r < reps; r++) {
    fold(n, cut + r % 3);
    checksum += (long)res[0];
  }
  for (int i = 0; i < n; i++) checksum += (long)h[i] * (i % 7);
  printf("checksum %ld\n", checksum);
  return 0;
}
