// Shared helpers for the evaluation applications: deterministic RNG,
// wall-clock timing, and the "compiler proxy" attribute.
//
// Every parallel variant is a `#pragma omp parallel for
// num_threads(threads)` loop with the schedule its chain (or hand port)
// emits, so the apps run on the same libgomp as purecc's output. The
// Sequential variants contain no OpenMP region: they are the paper's plain
// GCC baseline.
//
// The paper compares GCC 7.2 -O2 against ICC 16 (whose win comes from
// auto-vectorizing the extracted pure functions). We have one compiler, so
// the ICC role is played by compiling the variant's kernels with
// aggressive vectorization flags via function attributes — same code
// path, vectorized vs. not, which is exactly the distinction the paper
// measures (§4.2).
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace purec::apps {

/// Marks a kernel for the "ICC proxy" build: aggressive vectorization.
/// fast-math is required for GCC to vectorize float reductions — the same
/// liberty ICC's default (-fp-model fast) takes, which is where its
/// matmul edge in the paper comes from.
#define PUREC_VECTORIZED \
  __attribute__((optimize("O3", "tree-vectorize", "unroll-loops", \
                          "fast-math")))

/// Prevents inlining — models the function-call boundary that the pure
/// chain keeps (PluTo inlines, the pure chain calls; §4.3.1/§4.3.2).
#define PUREC_NOINLINE __attribute__((noinline))

/// Which compiler the variant models.
enum class Compiler { Gcc, Icc };

/// SplitMix64: deterministic, fast, good-enough distribution for inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  float next_float(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

  /// Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    return next_u64() % bound;
  }

 private:
  std::uint64_t state_;
};

/// Monotonic seconds.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-phase result every app run reports.
struct RunResult {
  double init_seconds = 0.0;
  double compute_seconds = 0.0;
  double checksum = 0.0;

  [[nodiscard]] double total_seconds() const {
    return init_seconds + compute_seconds;
  }
};

}  // namespace purec::apps
