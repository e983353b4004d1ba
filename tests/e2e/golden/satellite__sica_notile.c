#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float retrieve_aod(const float* bands, int nbands, int pixel)
{
  float acc = 0.0f;
  for (int b = 0; b < nbands; b++)
  {
    float v = bands[b * 4096 + pixel];
    if (v > 0.5f)
      acc += v * v;
    else
      acc += v;
  }
  return acc;
}
void filter(float* bands, float* out, int nbands, int npix)
{
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= npix - 1; t1++)
    {
      out[t1] = retrieve_aod((const float*)bands, nbands, t1);
    }
  }
}
