/* Satellite retrieval (Figs. 8-9): a per-pixel pure reduction over the
 * spectral bands, applied `reps` times to one scene.
 * argv: nbands npix reps s — bands, pixels, repetitions, seeded offset. */
#include <stdio.h>
#include <stdlib.h>

pure float retrieve_aod(pure float* bands, int nbands, int npix, int pixel) {
  float acc = 0.0f;
  for (int b = 0; b < nbands; b++) {
    float v = bands[b * npix + pixel];
    if (v > 0.5f)
      acc += v * v;
    else
      acc += v;
  }
  return acc;
}

void filter(float* bands, float* out, int nbands, int npix) {
  for (int p = 0; p < npix; p++) {
    out[p] = retrieve_aod((pure float*)bands, nbands, npix, p);
  }
}

int main(int argc, char** argv) {
  if (argc != 5) return 2;
  int nbands = atoi(argv[1]);
  int npix = atoi(argv[2]);
  int reps = atoi(argv[3]);
  int s = atoi(argv[4]);
  float* bands = (float*)malloc(nbands * npix * sizeof(float));
  float* out = (float*)malloc(npix * sizeof(float));
  for (int b = 0; b < nbands; b++)
    for (int p = 0; p < npix; p++)
      bands[b * npix + p] = (float)((b * 31 + p * 7 + s) % 13) * 0.125f;
  for (int p = 0; p < npix; p++) out[p] = 0.0f;
  for (int r = 0; r < reps; r++) filter(bands, out, nbands, npix);
  double checksum = 0.0;
  for (int p = 0; p < npix; p++) checksum += (double)out[p] * (p % 11);
  printf("checksum %.6f\n", checksum);
  return 0;
}
