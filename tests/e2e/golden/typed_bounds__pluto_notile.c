#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
typedef unsigned long size_t;
int a[8][64];
int sq(int v)
{
  return v * v + 1;
}
void fill_float(float x)
{
  for (int i = 0; i < x; i++)
    a[0][i] = sq(i);
}
void fill_unsigned(unsigned int n, int m)
{
  for (int j = 0; j < m; j++)
    for (unsigned int i = 0; i < n; i++)
      a[1 + j][i] = sq(i + j);
}
void fill_size(size_t n)
{
  for (int i = 0; i < n; i++)
    a[4][i] = sq(i) + 3;
}
void fill_char(int m)
{
  for (int j = 0; j < m; j++)
    for (unsigned char c = 0; c < 40; c++)
      a[5 + j][c] = sq(c - j);
}
void fill_long(long n)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      a[7][t1] = sq(t1) - 2;
    }
  }
}
long sum()
{
  long s = 0;
  {
#pragma omp parallel for reduction(+:s)
    for (int t1 = 0; t1 <= 7; t1++)
    {
#pragma omp simd reduction(+:s)
      for (int t2 = 0; t2 <= 63; t2++)
      {
        s += (long)a[t1][t2] * ((t1 * 64 + t2) % 7 + 1);
      }
    }
  }
  return s;
}
int main()
{
  long checksum = 0;
  fill_unsigned(0, 3);
  checksum += sum();
  fill_unsigned(1, 3);
  checksum += sum();
  fill_unsigned(5, 3);
  checksum += sum();
  fill_float(2.5f);
  fill_size(17);
  fill_char(2);
  fill_long(50);
  checksum += sum();
  printf("checksum %ld\n", checksum);
  return 0;
}
