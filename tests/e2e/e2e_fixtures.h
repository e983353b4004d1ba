// Fixture table for the end-to-end differential harness.
//
// Every fixture carries (a) the chain source whose emitted C is pinned by
// a golden file per transform config, and (b) — when the source can be a
// complete program — a runnable variant with deterministic inputs and a
// printed checksum, used to assert that the parallelized binary computes
// exactly what the serial reference computes.
#pragma once

#include <string>
#include <vector>

#include "test_sources.h"

namespace purec::e2e {

struct Fixture {
  /// Golden-file stem and gtest parameter name: [a-z0-9_]+.
  const char* name;
  /// Source fed through the chain for golden comparison. For asset
  /// fixtures this is the relative path (resolved against the repo root);
  /// inline fixtures store the text itself.
  const char* chain_source;
  bool chain_source_is_path;
  /// Complete program for differential execution; nullptr when the
  /// fixture cannot run (no main / intentionally rejected by the chain).
  const char* runnable;
  /// Whether the default chain accepts the source. Rejected fixtures
  /// (Listing 2's invalid operations, Listing 5's write-target argument)
  /// pin the rejection instead of a golden file: rejection *is* their e2e
  /// result.
  bool expect_ok;
  /// Whether the chain accepts the source when --inline-pure is on. The
  /// §3.3 extension inlines expression-bodied pure functions before scop
  /// detection, so Listing 5 loses its pure call, escapes the name-based
  /// rule, and is handled honestly by the dependence analysis instead —
  /// pinned here as a feature, not a bug.
  bool expect_ok_inlined;
  /// Run every configuration with --infer-pure: the fixture is
  /// keyword-free and relies on interprocedural purity inference to
  /// parallelize like its annotated twin.
  bool infer = false;
  /// --schedule spec applied in every configuration (nullptr = default).
  /// Parsed through ScheduleSpec, exactly like the CLI.
  const char* schedule = nullptr;
  /// Run every configuration with --memoize: memoizable pure calls go
  /// through generated thunks backed by the emitted concurrent table.
  /// The serial differential reference stays unmemoized, so the checksum
  /// comparison is exactly the memoized-vs-unmemoized contract.
  bool memoize = false;
  /// Run every configuration with --fp-reductions: floating-point
  /// accumulations may be reassociated into reduction clauses. Fixtures
  /// that set this keep their data integer-valued (and well under 2^24)
  /// so the checksum stays byte-exact in any association order.
  bool fp_reductions = false;

  [[nodiscard]] bool ok_with(bool inline_pure) const {
    return inline_pure ? expect_ok_inlined : expect_ok;
  }
};

// ---------------------------------------------------------------------------
// Runnable variants. Same kernels as the chain fixtures, wrapped in a main
// that allocates, fills deterministically, and prints a checksum. Serial
// and parallel binaries must match byte for byte: kernels either produce
// their output serially or reduce with exact-in-any-order data (integer
// values, min/max) so reduction clauses cannot perturb the checksum.
// ---------------------------------------------------------------------------

inline constexpr const char* kRunMatmul = R"(
#include <stdio.h>
#include <stdlib.h>

float **A, **Bt, **C;

pure float mult(float a, float b) {
  return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += mult(a[i], b[i]);
  return res;
}

int main() {
  int n = 64;
  A = (float**)malloc(n * sizeof(float*));
  Bt = (float**)malloc(n * sizeof(float*));
  C = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    A[i] = (float*)malloc(n * sizeof(float));
    Bt[i] = (float*)malloc(n * sizeof(float));
    C[i] = (float*)malloc(n * sizeof(float));
  }
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      A[i][j] = (float)((i * 7 + j * 3) % 11) * 0.25f;
      Bt[i][j] = (float)((i * 5 + j * 2) % 13) * 0.5f;
      C[i][j] = 0.0f;
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)C[i][j] * ((i + 2 * j) % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunListing2Valid = R"(
#include <stdio.h>
#include <stdlib.h>

int* globalPtr;

pure int* func2(pure int* p1, int p2);

pure int* func2(pure int* p1, int p2) {
  int a = p2;
  int b = a + 42;
  int* c = (int*)malloc(3 * sizeof(int));
  c[0] = p1[0] + b;
  pure int* ptr = p1;
  pure int* extPtr2;
  extPtr2 = (pure int*)globalPtr;
  return c;
}

int main() {
  int data[4];
  data[0] = 5;
  data[1] = 6;
  data[2] = 7;
  data[3] = 8;
  globalPtr = data;
  int* r = func2((pure int*)data, 7);
  printf("result %d\n", r[0]);
  return 0;
}
)";

inline constexpr const char* kRunListing5 = R"(
#include <stdio.h>

pure int func(pure int* a, int idx) {
  return a[idx - 1] + a[idx];
}

int main() {
  int array[100];
  for (int i = 0; i < 100; i++) {
    array[i] = (i * 5 + 2) % 23;
  }
  for (int i = 1; i < 100; i++) {
    array[i] = func(array, i);
  }
  long checksum = 0;
  for (int i = 0; i < 100; i++) checksum += (long)array[i] * (i % 7);
  printf("checksum %ld\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunListing6 = R"(
#include <stdio.h>

pure int func(pure int* a, int idx) {
  return a[idx - 1] + a[idx];
}

int main() {
  int array[100];
  for (int i = 0; i < 100; i++) {
    array[i] = (i * 3 + 1) % 17;
  }
  int* alias = array;
  for (int i = 1; i < 100; i++) {
    alias[i] = func(array, i);
  }
  long checksum = 0;
  for (int i = 0; i < 100; i++) checksum += (long)array[i] * (i % 9);
  printf("checksum %ld\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunHeat = R"(
#include <stdio.h>
#include <stdlib.h>

float **cur, **nxt;

pure float stencil(pure float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

void step(int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil((pure float**)cur, i, j);
}

int main() {
  int n = 64;
  cur = (float**)malloc(n * sizeof(float*));
  nxt = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    cur[i] = (float*)malloc(n * sizeof(float));
    nxt[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      cur[i][j] = (float)((i * 13 + j * 7) % 19) * 0.125f;
      nxt[i][j] = cur[i][j];
    }
  }
  for (int s = 0; s < 4; s++) {
    step(n);
    float** t = cur;
    cur = nxt;
    nxt = t;
  }
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)cur[i][j] * ((i + 3 * j) % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunTimeStencil = R"(
#include <stdio.h>
#include <stdlib.h>

void smooth(float* a, int steps, int n) {
  for (int t = 0; t < steps; t++)
    for (int i = 1; i < n - 1; i++)
      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);
}

int main() {
  int n = 1024;
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) a[i] = (float)((i * 5 + 3) % 11) * 0.25f;
  smooth(a, 3, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)a[i] * (i % 13);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunEll = R"(
#include <stdio.h>
#include <stdlib.h>

pure float ell_row_dot(pure float* values, pure int* cols, pure float* x,
                       int row, int rows, int width) {
  float sum = 0.0f;
  for (int k = 0; k < width; k++) {
    sum += values[k * rows + row] * x[cols[k * rows + row]];
  }
  return sum;
}

void ell_spmv(float* values, int* cols, float* x, float* y, int rows,
              int width) {
  for (int i = 0; i < rows; i++) {
    y[i] = ell_row_dot((pure float*)values, (pure int*)cols, (pure float*)x,
                       i, rows, width);
  }
}

int main() {
  int rows = 64;
  int width = 8;
  float* values = (float*)malloc(rows * width * sizeof(float));
  int* cols = (int*)malloc(rows * width * sizeof(int));
  float* x = (float*)malloc(rows * sizeof(float));
  float* y = (float*)malloc(rows * sizeof(float));
  for (int row = 0; row < rows; row++) {
    for (int k = 0; k < width; k++) {
      values[k * rows + row] = (float)((row * 3 + k * 5) % 9) * 0.5f;
      cols[k * rows + row] = (row * 7 + k * 13) % rows;
    }
    x[row] = (float)((row * 11) % 7) * 0.25f;
    y[row] = 0.0f;
  }
  ell_spmv(values, cols, x, y, rows, width);
  double checksum = 0.0;
  for (int i = 0; i < rows; i++) checksum += (double)y[i] * (i % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunSatellite = R"(
#include <stdio.h>
#include <stdlib.h>

pure float retrieve_aod(pure float* bands, int nbands, int pixel) {
  float acc = 0.0f;
  for (int b = 0; b < nbands; b++) {
    float v = bands[b * 4096 + pixel];
    if (v > 0.5f)
      acc += v * v;
    else
      acc += v;
  }
  return acc;
}

void filter(float* bands, float* out, int nbands, int npix) {
  for (int p = 0; p < npix; p++) {
    out[p] = retrieve_aod((pure float*)bands, nbands, p);
  }
}

int main() {
  int nbands = 4;
  int npix = 2048;
  float* bands = (float*)malloc(nbands * 4096 * sizeof(float));
  float* out = (float*)malloc(npix * sizeof(float));
  for (int b = 0; b < nbands; b++)
    for (int p = 0; p < 4096; p++)
      bands[b * 4096 + p] = (float)((b * 31 + p * 7) % 13) * 0.125f;
  for (int p = 0; p < npix; p++) out[p] = 0.0f;
  filter(bands, out, nbands, npix);
  double checksum = 0.0;
  for (int p = 0; p < npix; p++) checksum += (double)out[p] * (p % 11);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Keyword-free twin of kRunMatmul: identical program, no `pure` tokens.
/// Only parallelizes under --infer-pure.
inline constexpr const char* kRunMatmulPlain = R"(
#include <stdio.h>
#include <stdlib.h>

float **A, **Bt, **C;

float mult(float a, float b) {
  return a * b;
}

float dot(float* a, float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += mult(a[i], b[i]);
  return res;
}

int main(int argc, char** argv) {
  int n = 64;
  A = (float**)malloc(n * sizeof(float*));
  Bt = (float**)malloc(n * sizeof(float*));
  C = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    A[i] = (float*)malloc(n * sizeof(float));
    Bt[i] = (float*)malloc(n * sizeof(float));
    C[i] = (float*)malloc(n * sizeof(float));
  }
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      A[i][j] = (float)((i * 7 + j * 3) % 11) * 0.25f;
      Bt[i][j] = (float)((i * 5 + j * 2) % 13) * 0.5f;
      C[i][j] = 0.0f;
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      C[i][j] = dot(A[i], Bt[j], n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)C[i][j] * ((i + 2 * j) % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Keyword-free twin of kRunHeat for the inference path.
inline constexpr const char* kRunHeatPlain = R"(
#include <stdio.h>
#include <stdlib.h>

float **cur, **nxt;

float stencil(float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

void step(int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil(cur, i, j);
}

int main() {
  int n = 64;
  cur = (float**)malloc(n * sizeof(float*));
  nxt = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    cur[i] = (float*)malloc(n * sizeof(float));
    nxt[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      cur[i][j] = (float)((i * 13 + j * 7) % 19) * 0.125f;
      nxt[i][j] = cur[i][j];
    }
  }
  for (int s = 0; s < 4; s++) {
    step(n);
    float** t = cur;
    cur = nxt;
    nxt = t;
  }
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)cur[i][j] * ((i + 3 * j) % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Repeated-call memoization workload: `shade` is an iterative pure
/// function of one quantized int (32 distinct inputs over 4096 pixels,
/// ~99% hit ratio) that also reads the scalar global `gain` — so its
/// thunk keys on the argument AND the global snapshot.
inline constexpr const char* kRunTabulate = R"(
#include <stdio.h>
#include <stdlib.h>

float gain;

pure float shade(int v) {
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  for (int k = 0; k < 8; k++)
    y = 0.5f * (y + x / y);
  return y * gain;
}

void render(int* vals, float* out, int n) {
  for (int p = 0; p < n; p++)
    out[p] = shade(vals[p]);
}

int main() {
  int n = 4096;
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  for (int i = 0; i < n; i++) vals[i] = (i * 37 + 11) % 32;
  for (int i = 0; i < n; i++) out[i] = 0.0f;
  render(vals, out, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// kRunTabulate with phases: distinct keys for the first half of the
/// calls, then 32 repeating keys. At 4 threads every thread crosses
/// several of the memo gate's 1024-call windows, so the run covers
/// bypass stretches, the probe windows after them and the switch back to
/// hits, and must print the unmemoized checksum.
inline constexpr const char* kRunTabulatePhases = R"(
#include <stdio.h>
#include <stdlib.h>

float gain;

pure float shade(int v) {
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  for (int k = 0; k < 8; k++)
    y = 0.5f * (y + x / y);
  return y * gain;
}

void render(int* vals, float* out, int n) {
  for (int p = 0; p < n; p++)
    out[p] = shade(vals[p]);
}

int main() {
  int n = 65536;
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  for (int i = 0; i < n / 2; i++) vals[i] = i * 7 + 100;
  for (int i = n / 2; i < n; i++) vals[i] = (i * 37 + 11) % 32;
  for (int i = 0; i < n; i++) out[i] = 0.0f;
  render(vals, out, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Non-unit stride coverage: `for (i = 1; i < n; i += 2)` normalizes to a
/// trip-count domain variable, so the nest parallelizes with accesses
/// rewritten to 2*t1 + 1 (first ROADMAP scop-coverage gap).
inline constexpr const char* kRunStride2 = R"(
#include <stdio.h>
#include <stdlib.h>

pure float avg2(pure float* a, int j) {
  return 0.5f * (a[j] + a[j + 1]);
}

void downsample(float* out, float* in, int n) {
  for (int i = 1; i < n; i += 2)
    out[i] = avg2((pure float*)in, i);
}

int main() {
  int n = 1024;
  float* in = (float*)malloc((n + 1) * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  for (int i = 0; i <= n; i++) in[i] = (float)((i * 7 + 3) % 23) * 0.25f;
  for (int i = 0; i < n; i++) out[i] = 0.0f;
  downsample(out, in, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 13);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Triangular nest: the inner trip count varies with the outer iterator,
/// so with no user --schedule the codegen defaults the parallel pragma to
/// schedule(guided,4) (imbalance smoothing; ROADMAP runtime follow-up).
inline constexpr const char* kRunTriangular = R"(
#include <stdio.h>
#include <stdlib.h>

float **L, **U2;

pure float combine(pure float** u, int i, int j) {
  return u[i][j] + u[j][i];
}

void fold(int n) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j <= i; j++)
      L[i][j] = combine((pure float**)U2, i, j);
}

int main() {
  int n = 64;
  L = (float**)malloc(n * sizeof(float*));
  U2 = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    L[i] = (float*)malloc(n * sizeof(float));
    U2[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      L[i][j] = 0.0f;
      U2[i][j] = (float)((i * 11 + j * 5) % 17) * 0.125f;
    }
  }
  fold(n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)L[i][j] * ((i + 2 * j) % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Region SCoP: affine `if`/`else` guards become per-statement domain
/// constraints. The guard on the `a[i]` write is load-bearing — the write
/// covers [0, m) while `c[i]` reads a[i + m] over [m, n + m), so the
/// guarded domains never intersect and the loop parallelizes. A
/// shared-domain model would either reject the `if` outright or see the
/// write over all of [0, n) and serialize.
inline constexpr const char* kRunGuardedUpdate = R"(
#include <stdio.h>
#include <stdlib.h>

pure float scale(float v) { return 3.0f * v + 1.0f; }
pure float shift(float v) { return 0.5f * v - 2.0f; }

void split_update(float* a, float* b, float* c, float* x, int n, int m) {
  for (int i = 0; i < n; i++) {
    if (i < m)
      a[i] = scale(x[i]);
    else
      b[i] = shift(x[i]);
    c[i] = a[i + m] + b[i];
  }
}

int main() {
  int n = 2048;
  int m = 512;
  float* a = (float*)malloc((n + m) * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* c = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n + m; i++) a[i] = (float)((i * 7 + 5) % 19) * 0.25f;
  for (int i = 0; i < n; i++) {
    b[i] = (float)((i * 3 + 1) % 13) * 0.5f;
    c[i] = 0.0f;
    x[i] = (float)((i * 11 + 2) % 17) * 0.125f;
  }
  split_update(a, b, c, x, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += ((double)a[i] + (double)b[i] + (double)c[i]) * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Affine `while` loop: `int i = 0; while (i < n) { ...; i = i + 1; }`
/// canonicalizes into the `for` representation before SCoP detection and
/// parallelizes exactly like its `for` twin (ROADMAP coverage gap).
inline constexpr const char* kRunWhileLoop = R"(
#include <stdio.h>
#include <stdlib.h>

pure float blend(float u, float v) { return 0.6f * u + 0.4f * v; }

void mix(float* out, float* p, float* q, int n) {
  int i = 0;
  while (i < n) {
    out[i] = blend(p[i], q[i]);
    i = i + 1;
  }
}

int main() {
  int n = 4096;
  float* out = (float*)malloc(n * sizeof(float));
  float* p = (float*)malloc(n * sizeof(float));
  float* q = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    out[i] = 0.0f;
    p[i] = (float)((i * 5 + 3) % 23) * 0.25f;
    q[i] = (float)((i * 9 + 7) % 31) * 0.125f;
  }
  mix(out, p, q, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 11);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Imperfect nest: statements before and after the inner loop get their
/// own domains at depth 1 while the accumulation sits at depth 2. The
/// inner j loop carries the s[i] accumulation (serial); the outer i loop
/// carries nothing and takes the parallel pragma.
inline constexpr const char* kRunImperfectNest = R"(
#include <stdio.h>
#include <stdlib.h>

pure float cell(float v, int j) { return v * (float)(j + 1) + 1.0f; }

void row_scan(float* s, float** g, int n, int m) {
  for (int i = 0; i < n; i++) {
    s[i] = 0.0f;
    for (int j = 0; j < m; j++)
      s[i] = s[i] + cell(g[i][j], j);
    s[i] = s[i] * 0.25f;
  }
}

int main() {
  int n = 256;
  int m = 64;
  float* s = (float*)malloc(n * sizeof(float));
  float** g = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    s[i] = 0.0f;
    g[i] = (float*)malloc(m * sizeof(float));
    for (int j = 0; j < m; j++)
      g[i][j] = (float)((i * 13 + j * 5) % 11) * 0.0625f;
  }
  row_scan(s, g, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)s[i] * (i % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

/// Iterator-dependent strided lower bound (`for (j = i; j < n; j += 2)`,
/// the second ROADMAP scop-coverage gap): j normalizes to i + 2t, the
/// classic generator cannot fold the origin back, and the region path
/// annotates the outer loop (guided by default — the trapezoidal inner
/// trip count varies with i).
inline constexpr const char* kRunStridedLower = R"(
#include <stdio.h>
#include <stdlib.h>

pure float damp(float v) { return 0.75f * v + 0.125f; }

void halfband(float** w, float** r, int n) {
  for (int i = 0; i < n; i++)
    for (int j = i; j < n; j += 2)
      w[i][j] = damp(r[i][j]);
}

int main() {
  int n = 128;
  float** w = (float**)malloc(n * sizeof(float*));
  float** r = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    w[i] = (float*)malloc(n * sizeof(float));
    r[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      w[i][j] = 0.0f;
      r[i][j] = (float)((i * 17 + j * 3) % 29) * 0.0625f;
    }
  }
  halfband(w, r, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)w[i][j] * ((i + 3 * j) % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

inline constexpr const char* kRunMatmulWithInit = R"(
#include <stdio.h>
#include <stdlib.h>

float **A;

void init(int n) {
  for (int i = 0; i < n; i++) {
    A[i] = (float*)malloc(n * sizeof(float));
  }
}

int main() {
  int n = 64;
  A = (float**)malloc(n * sizeof(float*));
  init(n);
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      A[i][j] = (float)((i * j) % 7) * 0.5f;
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)A[i][j] * ((2 * i + j) % 3);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// Reduction fixtures. dot_reduce is the issue's flagship: keyword-free
// scalar accumulation through an inferred-pure combiner, parallelized via
// reduction(+:sum) under --infer-pure --fp-reductions. Inputs are small
// integers and n is small enough that every partial sum stays an exact
// float, so the differential is byte-exact despite reassociation.
inline constexpr const char* kRunDotReduce = R"(
#include <stdio.h>
#include <stdlib.h>

float mult(float a, float b) {
  return a * b;
}

void dot(float* a, float* b, float* out, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; i++) {
    sum = sum + mult(a[i], b[i]);
  }
  out[0] = sum;
}

int main() {
  int n = 4096;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(1 * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = (float)((i * 7 + 3) % 11);
    b[i] = (float)((i * 5 + 2) % 13);
  }
  dot(a, b, out, n);
  printf("checksum %.6f\n", (double)out[0]);
  return 0;
}
)";

// Min-reduction through fminf, which the effect database knows is a pure
// value function; needs neither annotations nor --fp-reductions (min is
// exact in any order).
inline constexpr const char* kRunMinReduce = R"(
#include <stdio.h>
#include <stdlib.h>
#include <math.h>

void minreduce(float* in, float* out, int n) {
  float lo = in[0];
  for (int i = 0; i < n; i++) {
    lo = fminf(lo, in[i]);
  }
  out[0] = lo;
}

int main() {
  int n = 4096;
  float* in = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(1 * sizeof(float));
  for (int i = 0; i < n; i++) {
    in[i] = (float)((i * 13 + 5) % 97) * 0.25f + 1.0f;
  }
  minreduce(in, out, n);
  printf("checksum %.6f\n", (double)out[0]);
  return 0;
}
)";

// Integer reduction inside a region SCoP: an imperfect nest whose inner
// loop folds under an affine guard while the outer loop also writes an
// array. Exercises the region codegen path where the reduction clause
// must compose with schedule(guided,4) and the accumulator must stay out
// of private(...). Integer accumulator, so no --fp-reductions needed.
inline constexpr const char* kRunGuardedReduce = R"(
#include <stdio.h>
#include <stdlib.h>

int g[64][64];
int h[64];
int res[1];

pure int weight(int v) {
  return v * v + 1;
}

void fold(int n, int cut) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    h[i] = g[i][0];
    for (int j = 0; j < n; j++) {
      if (j < i + cut) {
        total = total + weight(g[i][j]);
      }
    }
  }
  res[0] = total;
}

int main() {
  int n = 64;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      g[i][j] = (i * 5 + j * 3) % 17;
  fold(n, 8);
  long checksum = (long)res[0];
  for (int i = 0; i < n; i++) checksum += (long)h[i] * (i % 7);
  printf("checksum %ld\n", checksum);
  return 0;
}
)";

// A nest fission must split: the prefix-scan statement carries a true
// dependence on itself (acc[i] reads acc[i-1]) while the map statement
// is independent. Distribution emits the scan as a bare serial loop and
// the map under its own parallel pragma — the canonical Allen–Kennedy
// outcome, pinned per config.
inline constexpr const char* kRunFissionSplit = R"(
#include <stdio.h>
#include <stdlib.h>

pure float twice(float x) {
  return 2.0f * x;
}

void split(float* acc, float* out, float* in, int n) {
  for (int i = 0; i < n; i++) {
    if (i > 0)
      acc[i] = acc[i - 1] + in[i];
    out[i] = twice(in[i]);
  }
}

int main() {
  int n = 4096;
  float* acc = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    in[i] = (float)((i * 7 + 3) % 23);
    acc[i] = 0.0f;
  }
  acc[0] = in[0];
  split(acc, out, in, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += (double)acc[i] * (i % 5) + (double)out[i];
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// Affine guards on a loop's own iterator fold into the loop's bounds
// (schedule_region): a fissioned scan's `i > 0` at lengths 0, 1 and 2, a
// triangle mask `j < i + cut` with a negative cut, a two-sided band whose
// lower end passes its upper one, a conjunct that does not read the
// iterator (it stays the guard), a pruned then-branch whose negation
// folds, ceild/floord bounds under `<=`, and a pruned then-branch whose
// negation is not convex (it stays `if (!(...))`).
inline constexpr const char* kRunFoldedGuards = R"(
#include <stdio.h>
#include <stdlib.h>

pure int twice(int x) {
  return 2 * x;
}

pure int weight(int v) {
  return v * v + 1;
}

/* Fissioned scan: the serial group's `i > 0` guard becomes `i = 1`. */
void scan(int* acc, int* out, int* in, int n) {
  for (int i = 0; i < n; i++) {
    if (i > 0)
      acc[i] = acc[i - 1] + in[i];
    out[i] = twice(in[i]);
  }
}

/* Masked triangle: `j < i + cut` becomes purec_min(n, i + cut). */
int triangle(int** g, int* h, int n, int cut) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    h[i] = g[i][0];
    for (int j = 0; j < n; j++) {
      if (j < i + cut) {
        total = total + weight(g[i][j]);
      }
    }
  }
  return total;
}

/* Both sides of a band: purec_max(0, m) and purec_min(n, n - 2). */
void band(int* b, int* x, int m, int n) {
  for (int i = 0; i < n; i++) {
    if (i >= m && i < n - 2)
      b[i] = twice(x[i]);
  }
}

/* `flag > 0` does not read i: it stays behind as the guard. */
void residual(int* c, int* x, int n, int flag) {
  for (int i = 0; i < n; i++) {
    if (i > 1 && flag > 0)
      c[i] = weight(x[i]);
  }
}

/* Fission keeps only the else side in the map group: the negation of
   `i < m` folds into the lower bound. */
void pruned_else(int* a, int* b, int* x, int m, int n) {
  for (int i = 1; i < n; i++) {
    if (i < m)
      a[i] = a[i - 1] + x[i];
    else
      b[i] = twice(x[i]);
  }
}

/* Non-unit coefficients under an inclusive test: ceild and floord. */
void scaled(int* d, int* x, int n, int k) {
  for (int i = 0; i <= n; i++) {
    if (3 * i >= k && 2 * i < n)
      d[i] = weight(x[i]);
  }
}

/* The negation of a two-sided guard is not convex: the map group keeps
   `if (!(...))`. */
void two_sided_else(int* a, int* b, int* x, int m, int n) {
  for (int i = 1; i < n; i++) {
    if (i < m && i > 3)
      a[i] = a[i - 1] + x[i];
    else
      b[i] = twice(x[i]);
  }
}

int main() {
  int size = 64;
  int* in = (int*)malloc(size * sizeof(int));
  int* acc = (int*)malloc(size * sizeof(int));
  int* out = (int*)malloc(size * sizeof(int));
  int* h = (int*)malloc(size * sizeof(int));
  int** g = (int**)malloc(size * sizeof(int*));
  unsigned long checksum = 0;
  for (int i = 0; i < size; i++) {
    g[i] = (int*)malloc(size * sizeof(int));
    for (int j = 0; j < size; j++)
      g[i][j] = (i * 5 + j * 3 + 1) % 17;
  }
  for (int t = 0; t < 4; t++) {
    int len = t < 3 ? t : size;
    for (int i = 0; i < size; i++) {
      in[i] = (i * 7 + t) % 23;
      acc[i] = in[i];
      out[i] = -1;
    }
    scan(acc, out, in, len);
    for (int i = 0; i < size; i++)
      checksum = checksum * 3 + acc[i] + 7 * out[i];
  }
  for (int t = 0; t < 4; t++) {
    int cut = t * t * 9 - 5;
    for (int i = 0; i < size; i++) h[i] = -1;
    checksum = checksum * 5 + triangle(g, h, size - t, cut);
    for (int i = 0; i < size; i++) checksum = checksum * 3 + h[i];
  }
  for (int t = 0; t < 3; t++) {
    int m = t == 0 ? 10 : (t == 1 ? 0 : 80);
    for (int i = 0; i < size; i++) out[i] = -1;
    band(out, in, m, size - 3 * t);
    for (int i = 0; i < size; i++) checksum = checksum * 3 + out[i];
  }
  for (int flag = 0; flag < 2; flag++) {
    for (int i = 0; i < size; i++) out[i] = -1;
    residual(out, in, size, flag);
    for (int i = 0; i < size; i++) checksum = checksum * 3 + out[i];
  }
  for (int t = 0; t < 3; t++) {
    int split = t == 0 ? 20 : (t == 1 ? 0 : 90);
    for (int i = 0; i < size; i++) {
      acc[i] = i % 4;
      out[i] = -1;
    }
    pruned_else(acc, out, in, split, size);
    for (int i = 0; i < size; i++)
      checksum = checksum * 3 + acc[i] + 11 * out[i];
  }
  for (int k = -4; k < 40; k += 11) {
    for (int i = 0; i < size; i++) out[i] = -1;
    scaled(out, in, size - 1 - k / 4, k);
    for (int i = 0; i < size; i++) checksum = checksum * 3 + out[i];
  }
  for (int t = 0; t < 3; t++) {
    int split = t == 0 ? 30 : (t == 1 ? 2 : 90);
    for (int i = 0; i < size; i++) {
      acc[i] = i % 5;
      out[i] = -1;
    }
    two_sided_else(acc, out, in, split, size);
    for (int i = 0; i < size; i++)
      checksum = checksum * 3 + acc[i] + 11 * out[i];
  }
  printf("checksum %lu\n", checksum);
  return 0;
}
)";

// Two adjacent sibling nests with matching headers and no crossing
// dependence: the chain fuses them into one loop before extraction, so a
// single parallel pragma covers both statements. main fills its input in
// one loop on purpose — the fixture pins exactly one fusion decision.
inline constexpr const char* kRunFusedSiblings = R"(
#include <stdio.h>
#include <stdlib.h>

pure float scale(float x) {
  return 2.0f * x;
}

pure float shift(float x) {
  return x + 3.0f;
}

void both(float* a, float* b, float* x, int n) {
  for (int i = 0; i < n; i++)
    a[i] = scale(x[i]);
  for (int j = 0; j < n; j++)
    b[j] = shift(x[j]);
}

int main() {
  int n = 4096;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++)
    x[i] = (float)((i * 11 + 2) % 31);
  both(a, b, x, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += (double)a[i] + (double)b[i] * 0.5;
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// A function-scope temporary written at the top of every iteration and
// dead after the nest: privatization turns the loop-carried anti/output
// dependences on `t` into private(t), and the outer loop parallelizes
// instead of serializing on the scalar.
inline constexpr const char* kRunPrivateTmp = R"(
#include <stdio.h>
#include <stdlib.h>

pure float half(float x) {
  return 0.5f * x;
}

void sweep(float** out, float* in, float* w, int n, int m) {
  float t;
  for (int i = 0; i < n; i++) {
    t = half(in[i]);
    for (int j = 0; j < m; j++)
      out[i][j] = t * w[j];
  }
}

int main() {
  int n = 256;
  int m = 64;
  float** out = (float**)malloc(n * sizeof(float*));
  float* in = (float*)malloc(n * sizeof(float));
  float* w = (float*)malloc(m * sizeof(float));
  for (int i = 0; i < n; i++) {
    out[i] = (float*)malloc(m * sizeof(float));
    in[i] = (float)((i * 3 + 1) % 19);
  }
  for (int j = 0; j < m; j++)
    w[j] = (float)((j * 5 + 2) % 13);
  sweep(out, in, w, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < m; j++)
      checksum += (double)out[i][j] * ((i + j) % 3);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// A disjunctive guard (`i < m || i > m + 4`) with an else branch: the
// model splits the then-statement into one convex-domain copy per
// disjunct, the three statement domains are pairwise disjoint, and the
// loop proves parallel instead of being rejected as non-affine.
inline constexpr const char* kRunDisjunctiveGuard = R"(
#include <stdio.h>
#include <stdlib.h>

pure float twice(float x) {
  return 2.0f * x;
}

void mask(float* out, float* in, int n, int m) {
  for (int i = 0; i < n; i++) {
    if (i < m || i > m + 4)
      out[i] = twice(in[i]);
    else
      out[i] = 0.0f;
  }
}

int main() {
  int n = 4096;
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++)
    in[i] = (float)((i * 13 + 7) % 29);
  mask(out, in, n, n / 2);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += (double)out[i] * (i % 7 + 1);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// Band-major fill of a flat buffer, `A[b * n + p]` (the satellite scene
// layout): the domain proves 0 <= p < n, so the subscript splits into
// A[b][p], the nest becomes a classic band, and its tiles collapse(2)
// because 5 band rows make a single 32-row tile.
inline constexpr const char* kRunFlatFill = R"(
#include <stdio.h>
#include <stdlib.h>

pure float haze(int b, int p) {
  return (float)((b * 31 + p * 7) % 13) * 0.125f;
}

void fill(float* A, int nb, int n) {
  for (int b = 0; b < nb; b++)
    for (int p = 0; p < n; p++)
      A[b * n + p] = haze(b, p);
}

int main() {
  int nb = 5;
  int n = 1000;
  float* A = (float*)malloc(nb * n * sizeof(float));
  fill(A, nb, n);
  double checksum = 0.0;
  for (int b = 0; b < nb; b++)
    for (int p = 0; p < n; p++)
      checksum += (double)A[b * n + p] * ((b + p) % 11);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// Column-major ELL fill, `A[k * rows + row]`, in an imperfect nest with
// `x[row]` after the inner loop: split by rows, the region's row loop
// takes the parallel pragma.
inline constexpr const char* kRunEllFill = R"(
#include <stdio.h>
#include <stdlib.h>

void init(float* A, int* cols, float* x, int rows, int width) {
  for (int row = 0; row < rows; row++) {
    for (int k = 0; k < width; k++) {
      A[k * rows + row] = (float)((row * 3 + k * 5) % 9) * 0.5f;
      cols[k * rows + row] = (row * 7 + k * 13) % rows;
    }
    x[row] = (float)((row * 11) % 7) * 0.25f;
  }
}

int main() {
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
)";

// Negative: `j <= n` lets row i write A[(i + 1) * n], the first cell of
// the next row, so the rows overlap and the order of the writes decides
// the result. The subscript must not split; the nest stays serial with a
// located "cannot prove 0 <= j < n" reason.
inline constexpr const char* kRunFlatOverlap = R"(
#include <stdio.h>
#include <stdlib.h>

void stamp(float* A, int m, int n) {
  for (int i = 0; i < m; i++)
    for (int j = 0; j <= n; j++)
      A[i * n + j] = (float)(i * 7 + j);
}

int main() {
  int m = 40;
  int n = 9;
  float* A = (float*)malloc((m * n + 1) * sizeof(float));
  stamp(A, m, n);
  double checksum = 0.0;
  for (int i = 0; i < m * n + 1; i++) checksum += (double)A[i] * (i % 13);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// Negative: a split-able write A[i * n + j] next to a flat read A[i] of
// the same base. Row 1 overwrites A[n], which a later row reads as A[i]:
// keeping A flat (all-or-nothing per base) keeps that dependence, and the
// nest serial.
inline constexpr const char* kRunFlatMixed = R"(
#include <stdio.h>
#include <stdlib.h>

void spread(float* A, int m, int n) {
  for (int i = 1; i < m; i++)
    for (int j = 0; j < n; j++)
      A[i * n + j] = A[i] + 1.0f;
}

int main() {
  int m = 32;
  int n = 4;
  float* A = (float*)malloc(m * n * sizeof(float));
  for (int i = 0; i < m * n; i++) A[i] = (float)(i % 5);
  spread(A, m, n);
  double checksum = 0.0;
  for (int i = 0; i < m * n; i++) checksum += (double)A[i] * (i % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

// A local pointer one element into its array: `p[i]` is `a[i + 1]`, so
// iteration i writes what iteration i + 1 reads. Resolving p onto a with
// offset 1 exposes the carried dependence and keeps the loop serial; with
// p and a taken for two objects the loop would race at every chunk
// boundary.
inline constexpr const char* kRunAliasOffset = R"(
#include <stdio.h>

int main() {
  int a[32769];
  for (int i = 0; i < 32769; i++) {
    a[i] = (i * 7 + 3) % 13;
  }
  int* p = &a[1];
  for (int i = 0; i < 32768; i++) {
    p[i] = (a[i] * 3 + i) % 1009;
  }
  long checksum = 0;
  for (int i = 0; i < 32769; i++) checksum += (long)a[i] * (i % 9);
  printf("checksum %ld\n", checksum);
  return 0;
}
)";

// Loop headers whose names are not signed integers. Emitted loops run an
// `int` iterator up to `bound - 1`: a float bound does not compile as an
// OpenMP loop, and an unsigned `n - 1` wraps at n = 0 (fill_unsigned ran
// off the array there). Every such nest stays serial with a reason; the
// `long` nest still parallelizes.
inline constexpr const char* kRunTypedBounds = R"(
#include <stdio.h>

typedef unsigned long size_t;

int a[8][64];

pure int sq(int v) {
  return v * v + 1;
}

void fill_float(float x) {
  for (int i = 0; i < x; i++) a[0][i] = sq(i);
}

void fill_unsigned(unsigned n, int m) {
  for (int j = 0; j < m; j++)
    for (unsigned i = 0; i < n; i++) a[1 + j][i] = sq(i + j);
}

void fill_size(size_t n) {
  for (int i = 0; i < n; i++) a[4][i] = sq(i) + 3;
}

void fill_char(int m) {
  for (int j = 0; j < m; j++)
    for (unsigned char c = 0; c < 40; c++) a[5 + j][c] = sq(c - j);
}

void fill_long(long n) {
  for (long i = 0; i < n; i++) a[7][i] = sq(i) - 2;
}

long sum(void) {
  long s = 0;
  for (int r = 0; r < 8; r++)
    for (int c = 0; c < 64; c++) s += (long)a[r][c] * ((r * 64 + c) % 7 + 1);
  return s;
}

int main() {
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
)";

/// The complete corpus: every fixture in tests/test_sources.h plus every
/// paper listing checked in under assets/c/.
inline std::vector<Fixture> all_fixtures() {
  return {
      {"matmul", testsrc::kMatmul, false, kRunMatmul, true, true},
      {"listing2", testsrc::kListing2, false, nullptr, false, false},
      {"listing2_valid", testsrc::kListing2Valid, false, kRunListing2Valid,
       true, true},
      {"listing5", testsrc::kListing5, false, kRunListing5, false, true},
      {"listing6", testsrc::kListing6, false, kRunListing6, true, true},
      {"heat", testsrc::kHeat, false, kRunHeat, true, true},
      {"time_stencil", testsrc::kTimeStencil, false, kRunTimeStencil, true,
       true},
      {"ell", testsrc::kEll, false, kRunEll, true, true},
      {"satellite", testsrc::kSatellite, false, kRunSatellite, true, true},
      // purecc --schedule guided,8 end to end: the clause must round-trip
      // through parse → chain → codegen into schedule(guided,8) in the
      // golden C, and the guided binary must match the serial reference.
      {"satellite_guided", testsrc::kSatellite, false, kRunSatellite, true,
       true, /*infer=*/false, /*schedule=*/"guided,8"},
      {"matmul_with_init", testsrc::kMatmulWithInit, false,
       kRunMatmulWithInit, true, true},
      // purecc --memoize end to end. matmul_memo pins two rejections:
      // the cost gate turns `mult` away and `dot` is rejected for its
      // pointer params, so its goldens equal matmul's; satellite_memo has
      // no memoizable function at all, pinning --memoize as a byte-level
      // no-op there; tabulate_memo is the repeated-call workload whose
      // thunk keys on an argument plus the `gain` global snapshot.
      {"matmul_memo", testsrc::kMatmul, false, kRunMatmul, true, true,
       /*infer=*/false, /*schedule=*/nullptr, /*memoize=*/true},
      {"satellite_memo", testsrc::kSatellite, false, kRunSatellite, true,
       true, /*infer=*/false, /*schedule=*/nullptr, /*memoize=*/true},
      {"tabulate_memo", kRunTabulate, false, kRunTabulate, true, true,
       /*infer=*/false, /*schedule=*/nullptr, /*memoize=*/true},
      {"tabulate_memo_phases", kRunTabulatePhases, false,
       kRunTabulatePhases, true, true, /*infer=*/false,
       /*schedule=*/nullptr, /*memoize=*/true},
      // Non-unit stride + guided-by-default coverage (ROADMAP gaps).
      {"stride2", kRunStride2, false, kRunStride2, true, true},
      {"triangular_guided", kRunTriangular, false, kRunTriangular, true,
       true},
      // Region SCoPs (per-statement domains): affine if/else guards that
      // *prove* the loop parallel, a canonicalized while loop, an
      // imperfect nest with code around the inner loop, and an
      // iterator-dependent strided lower bound. Each runs the serial-vs-
      // parallel differential in every config.
      {"guarded_update", kRunGuardedUpdate, false, kRunGuardedUpdate, true,
       true},
      {"while_loop", kRunWhileLoop, false, kRunWhileLoop, true, true},
      {"imperfect_nest", kRunImperfectNest, false, kRunImperfectNest, true,
       true},
      {"strided_lower", kRunStridedLower, false, kRunStridedLower, true,
       true},
      // Scalar reductions (no longer mis-serialized): keyword-free dot
      // product under inference + the FP gate, a flag-free fminf min
      // fold, and an integer accumulation in a guarded region nest.
      {"dot_reduce", kRunDotReduce, false, kRunDotReduce, true, true,
       /*infer=*/true, /*schedule=*/nullptr, /*memoize=*/false,
       /*fp_reductions=*/true},
      {"min_reduce", kRunMinReduce, false, kRunMinReduce, true, true},
      {"guarded_reduce", kRunGuardedReduce, false, kRunGuardedReduce, true,
       true},
      // Region scheduling (fission / fusion / privatization / guard
      // splitting): each pins its emitted shape per config and runs the
      // serial-vs-parallel differential.
      {"fission_split", kRunFissionSplit, false, kRunFissionSplit, true,
       true},
      {"fused_siblings", kRunFusedSiblings, false, kRunFusedSiblings, true,
       true},
      {"private_tmp", kRunPrivateTmp, false, kRunPrivateTmp, true, true},
      {"disjunctive_guard", kRunDisjunctiveGuard, false,
       kRunDisjunctiveGuard, true, true},
      {"folded_guards", kRunFoldedGuards, false, kRunFoldedGuards, true,
       true},
      // Flattened `A[e1 * P + e2]` subscripts: split when the domain
      // proves 0 <= e2 < P and every access to the base splits alike.
      {"flat_fill", kRunFlatFill, false, kRunFlatFill, true, true},
      {"ell_fill", kRunEllFill, false, kRunEllFill, true, true},
      {"flat_overlap", kRunFlatOverlap, false, kRunFlatOverlap, true, true},
      {"flat_mixed", kRunFlatMixed, false, kRunFlatMixed, true, true},
      // Local pointer resolution: `int* p = &a[1]` rebased onto a.
      {"alias_offset", kRunAliasOffset, false, kRunAliasOffset, true, true},
      // Loop headers typed float, unsigned, size_t, unsigned char, long.
      {"typed_bounds", kRunTypedBounds, false, kRunTypedBounds, true, true},
      {"matmul_plain", testsrc::kMatmulPlain, false, kRunMatmulPlain, true,
       true, /*infer=*/true},
      {"heat_plain", testsrc::kHeatPlain, false, kRunHeatPlain, true, true,
       /*infer=*/true},
      {"asset_listing2_rules", "assets/c/listing2_rules.c", true, nullptr,
       false, false},
      {"asset_listing5_rejected", "assets/c/listing5_rejected.c", true,
       nullptr, false, true},
      {"asset_listing6_alias", "assets/c/listing6_alias.c", true, nullptr,
       true, true},
      {"asset_listing7_matmul", "assets/c/listing7_matmul.c", true, nullptr,
       true, true},
  };
}

}  // namespace purec::e2e
