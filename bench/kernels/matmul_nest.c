/* The matrix product with dot() inlined by hand and no pure keyword: the
 * perfect loop nest standalone PluTo is given (§4.3.1). It accumulates
 * into C, which matmul.c's init zeroes, in the same k order as dot(). */
#include <kernel_support.h>

/* C += A * B; returns seconds. */
double ENTRY_COMPUTE(float** A, float** Bt, float** C, int n) {
  double start = kernel_now();
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      for (int k = 0; k < n; k++)
        C[i][j] = C[i][j] + A[i][k] * Bt[j][k];
  return kernel_now() - start;
}
