// Shared bench-harness infrastructure: the paper's core ladder (powers of
// two up to the host's cores), full-scale toggle, and the series helper
// that times one kernel configuration with google-benchmark (manual
// timing: each run reports the seconds its kernel entry points measured)
// and gates its checksum against the app's Sequential build.
//
// Every kernel is C under bench/kernels/, compiled per configuration from
// the source purecc emitted in the build tree (bench/CMakeLists.txt).
// Emitted pragmas carry no num_threads clause, so the ladder sets the
// thread count with omp_set_num_threads.
//
// Environment knobs:
//   PUREC_FULL=1         paper-scale problem sizes (4096^2 matrices, ...)
//   PUREC_SMOKE=1        CI-sized problems: correctness-of-harness runs
//                        only, numbers are meaningless (set by bench-smoke)
//   PUREC_REPS=<n>       repetitions per configuration (paper: 20)
//   PUREC_MAX_THREADS=<n> top of the thread ladder (default: the hardware
//                        concurrency)
#pragma once

#include <benchmark/benchmark.h>
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace purec::bench {

[[nodiscard]] inline bool full_scale() {
  const char* env = std::getenv("PUREC_FULL");
  return env != nullptr && env[0] == '1';
}

/// bench-smoke clamp: shrink problem sizes so a one-repetition pass over
/// every harness finishes in seconds. PUREC_FULL wins when both are set.
[[nodiscard]] inline bool smoke_scale() {
  if (full_scale()) return false;
  const char* env = std::getenv("PUREC_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// Problem-size ladder helper: full-scale / default / smoke. Smoke sizes
/// are not multiples of any tile size, so tile remainders are exercised.
[[nodiscard]] inline int scaled_size(int full, int normal, int smoke) {
  if (full_scale()) return full;
  return smoke_scale() ? smoke : normal;
}

[[nodiscard]] inline int repetitions() {
  const char* env = std::getenv("PUREC_REPS");
  if (env == nullptr) return 1;
  const int reps = std::atoi(env);
  return reps > 0 ? reps : 1;
}

/// The paper's ladder, 2^0 .. 2^6 cores on its 64-core node: powers of two
/// up to the hardware concurrency. OpenMP runs one OS thread per requested
/// thread, so rungs above the core count would measure oversubscription,
/// not scaling; PUREC_MAX_THREADS moves the top either way.
[[nodiscard]] inline std::vector<int> thread_ladder() {
  const unsigned hc = std::thread::hardware_concurrency();
  int max_threads = hc == 0 ? 1 : static_cast<int>(hc);
  if (const char* env = std::getenv("PUREC_MAX_THREADS")) {
    const int clamp = std::atoi(env);
    if (clamp > 0) max_threads = clamp;
  }
  std::vector<int> ladder;
  for (int t = 1; t <= max_threads; t *= 2) ladder.push_back(t);
  return ladder;
}

/// One run of a configuration: the seconds it is charged and the checksum
/// of its result (computed by the app's Sequential build).
struct Run {
  double seconds = 0.0;
  double checksum = 0.0;
};

/// How a series' checksum must match the Sequential build's: exactly for
/// -O2 builds (same arithmetic, same order), within 1e-4 relative for the
/// ICC-proxy builds, whose -ffast-math reassociates float reductions.
enum class Match { Exact, FastMath };

/// Row-pointer arrays whose rows a kernel's init phase mallocs; freed
/// here.
class Rows {
 public:
  explicit Rows(int count) : rows_(static_cast<std::size_t>(count)) {}
  ~Rows() {
    for (float* row : rows_) std::free(row);
  }
  Rows(const Rows&) = delete;
  Rows& operator=(const Rows&) = delete;

  float** data() { return rows_.data(); }

 private:
  std::vector<float*> rows_;
};

namespace detail {
inline bool& checksum_failed() {
  static bool failed = false;
  return failed;
}
}  // namespace detail

/// Registers `<figure>/<name>/threads:T` for every T in `threads` (the
/// ladder by default). Each repetition is one run on T OpenMP threads;
/// the `speedup` counter is Tseq / Tpar against `sequential` (the y-axis
/// of Figs. 5/7/9/11), and a checksum that misses `sequential`'s fails
/// the benchmark and the binary's exit code. A zero Sequential checksum
/// fails too: no scene's checksum is zero, and a kernel that wrote
/// nothing must not pass by matching one that also wrote nothing.
inline void register_series(const std::string& figure,
                            const std::string& name, const Run& sequential,
                            Match match, std::function<Run()> run,
                            const std::vector<int>& threads = thread_ladder()) {
  const std::string series = figure + "/" + name;
  for (const int t : threads) {
    benchmark::RegisterBenchmark(
        series.c_str(),
        [=](benchmark::State& state) {
          omp_set_num_threads(t);
          for (auto _ : state) {
            const Run got = run();
            state.SetIterationTime(got.seconds);
            state.counters["speedup"] = sequential.seconds / got.seconds;
            const double tolerance =
                match == Match::Exact
                    ? 0.0
                    : 1e-4 * std::abs(sequential.checksum);
            if (sequential.checksum == 0.0 ||
                std::abs(got.checksum - sequential.checksum) > tolerance) {
              std::fprintf(stderr,
                           "%s threads=%d: checksum %.17g, Sequential build "
                           "%.17g\n",
                           series.c_str(), t, got.checksum,
                           sequential.checksum);
              detail::checksum_failed() = true;
              state.SkipWithError("checksum differs from the Sequential build");
              break;
            }
          }
        })
        ->Arg(t)
        ->ArgName("threads")
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->Repetitions(repetitions());
  }
}

/// Runs the registered series (after benchmark::Initialize); nonzero when
/// any checksum missed or --benchmark_filter matched no series.
inline int run_benchmarks() {
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return detail::checksum_failed() || ran == 0 ? 1 : 0;
}

}  // namespace purec::bench
