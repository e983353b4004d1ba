/* Satellite image filter: aerosol optical depth (AOD) retrieval per pixel
 * of a synthetic hyperspectral scene (§4.3.3, Figs. 8-9). A haze gradient
 * grows towards the bottom of the scene and the retrieval's refinement
 * count follows the pixel's spectral signal, so late rows cost more: the
 * imbalance static scheduling handles poorly and a dynamic schedule
 * fixes. The scene is band-major, planes[b][y * width + x]. */
#include <math.h>
#include <stdlib.h>
#include <kernel_support.h>

/* Iterative lookup-table refinement in the style of the paper's AOD
 * method; the data-dependent loop count is what keeps it out of
 * polyhedral reach, so the chain leaves it a call. */
static pure float retrieve_aod(pure float** planes, int bands, int pixel) {
  float signal = 0.0f;
  for (int b = 0; b < bands; b++)
    signal += planes[b][pixel];
  signal /= (float)bands;

  int refinements = 24 + (int)(signal * 220.0f);
  if (signal > 0.55f)
    refinements *= 3;

  float tau = 0.1f;
  for (int r = 0; r < refinements; r++) {
    float residual = 0.0f;
    for (int b = 0; b < bands; b++) {
      float obs = planes[b][pixel];
      /* Toy radiative transfer: exponential attenuation per band. */
      float modeled = obs * (1.0f - expf(-tau * (1.0f + 0.1f * b)));
      residual += obs - modeled;
    }
    tau += 0.001f * residual;
    if (residual < 1e-4f && residual > -1e-4f)
      break;
  }
  return tau;
}

/* Allocates the scene (`bands` planes) and the zeroed height x width AOD
 * image, filling the planes with reflectance-like values plus the haze
 * gradient; returns seconds. */
double ENTRY_INIT(float** planes, float** aod, int bands, int width,
                  int height) {
  double start = kernel_now();
  unsigned long long seed = 0x5eedULL;
  for (int b = 0; b < bands; b++) {
    planes[b] = (float*)malloc(width * height * sizeof(float));
    for (int y = 0; y < height; y++) {
      for (int x = 0; x < width; x++) {
        float base = splitmix_float(&seed, 0.05f, 0.6f);
        float haze = 0.35f * (float)y / (float)height;
        planes[b][y * width + x] = base + haze;
      }
    }
  }
  for (int y = 0; y < height; y++)
    aod[y] = (float*)calloc(width, sizeof(float));
  return kernel_now() - start;
}

/* Retrieves every pixel; returns seconds. */
double ENTRY_COMPUTE(float** planes, float** aod, int bands, int width,
                     int height) {
  double start = kernel_now();
  for (int y = 0; y < height; y++)
    for (int x = 0; x < width; x++)
      aod[y][x] = retrieve_aod((pure float**)planes, bands, y * width + x);
  return kernel_now() - start;
}

/* Position-weighted sum of the AOD image. */
double ENTRY_CHECKSUM(float** aod, int width, int height) {
  double sum = 0.0;
  for (int y = 0; y < height; y++)
    for (int x = 0; x < width; x++)
      sum += (double)aod[y][x] * (1 + (y * width + x) % 5);
  return sum;
}
