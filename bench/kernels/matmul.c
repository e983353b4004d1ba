/* Matrix-matrix multiplication through a pure dot product (paper Listing 7,
 * §4.3.1, Figs. 3-5). purecc parallelizes the product nest and, because
 * malloc counts as pure, the allocation/fill loop as well: the accidental
 * init speedup of §4.3.1. Operands are row-pointer arrays so every
 * subscript purecc sees is affine; Bt holds B transposed so dot() walks
 * rows. */
#include <stdlib.h>
#include <kernel_support.h>

static pure float mult(float a, float b) {
  return a * b;
}

static pure float dot(pure float* a, pure float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += mult(a[i], b[i]);
  return res;
}

/* Allocates and fills the n x n operands (C zeroed); returns seconds. */
double ENTRY_INIT(float** A, float** Bt, float** C, int n) {
  double start = kernel_now();
  for (int i = 0; i < n; i++) {
    A[i] = (float*)malloc(n * sizeof(float));
    Bt[i] = (float*)malloc(n * sizeof(float));
    C[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      A[i][j] = (float)((i * 7 + j * 3) % 11) * 0.25f;
      Bt[i][j] = (float)((i * 5 + j * 2) % 13) * 0.5f;
      C[i][j] = 0.0f;
    }
  }
  return kernel_now() - start;
}

/* C = A * B; returns seconds. */
double ENTRY_COMPUTE(float** A, float** Bt, float** C, int n) {
  double start = kernel_now();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);
  return kernel_now() - start;
}

/* Position-weighted sum of an n x n matrix. */
double ENTRY_CHECKSUM(float** M, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      sum += (double)M[i][j] * ((i + 2 * j) % 5);
  return sum;
}
