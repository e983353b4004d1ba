#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
int func(const int* a, int idx)
{
  return a[idx - 1] + a[idx];
}
int main()
{
  int array[100];
  int* alias = array;
  {
    for (int t1 = 1; t1 <= 99; t1++)
    {
      alias[t1] = func(array, t1);
    }
  }
  return 0;
}
