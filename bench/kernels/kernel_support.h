/* Shared by the kernel sources: the clock the entry points time their
 * phases with, and the SplitMix64 generator behind the seeded inputs.
 * Kernels include it with angle brackets: purecc passes system-style
 * includes through to the output untouched, and gcc finds this one on the
 * include path. Plain C with no OpenMP, so the Sequential builds need no
 * omp.h. */
#ifndef PUREC_KERNEL_SUPPORT_H
#define PUREC_KERNEL_SUPPORT_H

#include <time.h>

/* Monotonic seconds. */
static inline double kernel_now(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* SplitMix64: deterministic, fast, good enough for synthetic inputs. */
static inline unsigned long long splitmix64(unsigned long long* state) {
  unsigned long long z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/* Uniform float in [lo, hi). */
static inline float splitmix_float(unsigned long long* state, float lo,
                                   float hi) {
  double unit = (double)(splitmix64(state) >> 11) * 0x1.0p-53;
  return lo + (float)unit * (hi - lo);
}

#endif
