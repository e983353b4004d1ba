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
int twice(int x)
{
  return 2 * x;
}
int weight(int v)
{
  return v * v + 1;
}
void scan(int* acc, int* out, int* in, int n)
{
  {
    for (int i = 1; i < n; i++)
    {
      acc[i] = acc[i - 1] + in[i];
    }
    {
#pragma omp parallel for simd
      for (int i = 0; i < n; i++)
      {
        out[i] = twice(in[i]);
      }
    }
  }
}
int triangle(int** g, int* h, int n, int cut)
{
  int total = 0;
  {
#pragma omp parallel for schedule(guided,4) reduction(+:total)
    for (int i = 0; i < n; i++)
    {
      h[i] = g[i][0];
      {
#pragma omp simd reduction(+:total)
        for (int j = 0; j < purec_min(n, i + cut); j++)
        {
          total = total + weight(g[i][j]);
        }
      }
    }
  }
  return total;
}
void band(int* b, int* x, int m, int n)
{
  {
#pragma omp parallel for simd
    for (int i = purec_max(0, m); i < purec_min(n, n - 2); i++)
    {
      b[i] = twice(x[i]);
    }
  }
}
void residual(int* c, int* x, int n, int flag)
{
  {
#pragma omp parallel for simd
    for (int i = 2; i < n; i++)
    {
      if (flag > 0)
        c[i] = weight(x[i]);
    }
  }
}
void pruned_else(int* a, int* b, int* x, int m, int n)
{
  {
    for (int i = 1; i < purec_min(n, m); i++)
    {
      a[i] = a[i - 1] + x[i];
    }
    {
#pragma omp parallel for simd
      for (int i = purec_max(1, m); i < n; i++)
      {
        b[i] = twice(x[i]);
      }
    }
  }
}
void scaled(int* d, int* x, int n, int k)
{
  {
#pragma omp parallel for simd
    for (int i = purec_max(0, ceild(k, 3)); i <= purec_min(n, floord(n - 1, 2)); i++)
    {
      d[i] = weight(x[i]);
    }
  }
}
void two_sided_else(int* a, int* b, int* x, int m, int n)
{
  {
    for (int i = 4; i < purec_min(n, m); i++)
    {
      a[i] = a[i - 1] + x[i];
    }
    {
#pragma omp parallel for simd
      for (int i = 1; i < n; i++)
      {
        if (!(i < m && i > 3))
          b[i] = twice(x[i]);
      }
    }
  }
}
int main()
{
  int size = 64;
  int* in = (int*)malloc(size * sizeof(int));
  int* acc = (int*)malloc(size * sizeof(int));
  int* out = (int*)malloc(size * sizeof(int));
  int* h = (int*)malloc(size * sizeof(int));
  int** g = (int**)malloc(size * sizeof(int*));
  unsigned long checksum = 0;
  {
#pragma omp parallel for
    for (int i = 0; i < size; i++)
    {
      g[i] = (int*)malloc(size * sizeof(int));
      {
#pragma omp simd
        for (int j = 0; j < size; j++)
          g[i][j] = (i * 5 + j * 3 + 1) % 17;
      }
    }
  }
  for (int t = 0; t < 4; t++)
  {
    int len = t < 3 ? t : size;
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        in[t1] = (t1 * 7 + t) % 23;
        acc[t1] = in[t1];
        out[t1] = -1;
      }
    }
    scan(acc, out, in, len);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + acc[t1] + 7 * out[t1];
      }
    }
  }
  for (int t = 0; t < 4; t++)
  {
    int cut = t * t * 9 - 5;
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        h[t1] = -1;
      }
    }
    checksum = checksum * 5 + triangle(g, h, size - t, cut);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + h[t1];
      }
    }
  }
  for (int t = 0; t < 3; t++)
  {
    int m = t == 0 ? 10 : t == 1 ? 0 : 80;
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        out[t1] = -1;
      }
    }
    band(out, in, m, size - 3 * t);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + out[t1];
      }
    }
  }
  for (int flag = 0; flag < 2; flag++)
  {
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        out[t1] = -1;
      }
    }
    residual(out, in, size, flag);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + out[t1];
      }
    }
  }
  for (int t = 0; t < 3; t++)
  {
    int split = t == 0 ? 20 : t == 1 ? 0 : 90;
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        acc[t1] = t1 % 4;
        out[t1] = -1;
      }
    }
    pruned_else(acc, out, in, split, size);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + acc[t1] + 11 * out[t1];
      }
    }
  }
  for (int k = -4; k < 40; k += 11)
  {
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        out[t1] = -1;
      }
    }
    scaled(out, in, size - 1 - k / 4, k);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + out[t1];
      }
    }
  }
  for (int t = 0; t < 3; t++)
  {
    int split = t == 0 ? 30 : t == 1 ? 2 : 90;
    {
#pragma omp parallel for simd
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        acc[t1] = t1 % 5;
        out[t1] = -1;
      }
    }
    two_sided_else(acc, out, in, split, size);
    {
      for (int t1 = 0; t1 <= size - 1; t1++)
      {
        checksum = checksum * 3 + acc[t1] + 11 * out[t1];
      }
    }
  }
  printf("checksum %lu\n", checksum);
  return 0;
}
