#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
void init(float* A, int* cols, float* x, int rows, int width)
{
  {
#pragma omp parallel for
    for (int row = 0; row < rows; row++)
    {
      for (int k = 0; k < width; k++)
      {
        A[k * rows + row] = (float)((row * 3 + k * 5) % 9) * 0.5f;
        cols[k * rows + row] = (row * 7 + k * 13) % rows;
      }
      x[row] = (float)(row * 11 % 7) * 0.25f;
    }
  }
}
int main()
{
  int rows = 300;
  int width = 6;
  float* A = (float*)malloc(rows * width * sizeof(float));
  int* cols = (int*)malloc(rows * width * sizeof(int));
  float* x = (float*)malloc(rows * sizeof(float));
  init(A, cols, x, rows, width);
  double checksum = 0.0;
  for (int row = 0; row < rows; row++)
    for (int k = 0; k < width; k++)
      checksum += (double)A[k * rows + row] * x[cols[k * rows + row]];
  printf("checksum %.6f\n", checksum);
  return 0;
}
