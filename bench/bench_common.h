// Shared bench-harness infrastructure: the paper's core ladder (powers of
// two up to the host's cores), full-scale toggle, and helpers to register
// per-variant series with google-benchmark using manual (kernel-only)
// timing.
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
/// every harness finishes in seconds (the fig8/fig9 satellite scenes
/// otherwise dominate at ~23 s each). PUREC_FULL wins when both are set.
[[nodiscard]] inline bool smoke_scale() {
  if (full_scale()) return false;
  const char* env = std::getenv("PUREC_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// Problem-size ladder helper: full-scale / default / smoke.
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

[[nodiscard]] inline unsigned bench_hardware_concurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// The paper's ladder, 2^0 .. 2^6 cores on its 64-core node: powers of two
/// up to the hardware concurrency. OpenMP runs one OS thread per requested
/// thread, so rungs above the core count would measure oversubscription,
/// not scaling; PUREC_MAX_THREADS moves the top either way.
[[nodiscard]] inline std::vector<std::int64_t> thread_ladder() {
  std::int64_t max_threads = bench_hardware_concurrency();
  if (const char* env = std::getenv("PUREC_MAX_THREADS")) {
    const std::int64_t clamp = std::atoll(env);
    if (clamp > 0) max_threads = clamp;
  }
  std::vector<std::int64_t> ladder;
  for (std::int64_t t = 1; t <= max_threads; t *= 2) ladder.push_back(t);
  return ladder;
}

/// Registers one benchmark series `<figure>/<name>/threads:T` for every T
/// in the ladder. `run` returns the measured seconds for one repetition
/// at the given thread count (manual timing: setup excluded by the
/// runner, included only if the app counts it).
inline void register_series(
    const std::string& figure, const std::string& name,
    const std::function<double(int threads)>& run) {
  for (const std::int64_t threads : thread_ladder()) {
    benchmark::RegisterBenchmark(
        (figure + "/" + name).c_str(),
        [run](benchmark::State& state) {
          const int t = static_cast<int>(state.range(0));
          for (auto _ : state) {
            state.SetIterationTime(run(t));
          }
        })
        ->Arg(threads)
        ->ArgName("threads")
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond)
        ->Iterations(repetitions());
  }
}

/// Speedup variant: reports Tseq / Tpar as the benchmark's "speedup"
/// counter (the quantity on the y-axis of Figs. 5/7/9/11).
inline void register_speedup_series(
    const std::string& figure, const std::string& name,
    double sequential_seconds,
    const std::function<double(int threads)>& run) {
  for (const std::int64_t threads : thread_ladder()) {
    benchmark::RegisterBenchmark(
        (figure + "/" + name).c_str(),
        [run, sequential_seconds](benchmark::State& state) {
          const int t = static_cast<int>(state.range(0));
          double seconds = 0.0;
          for (auto _ : state) {
            seconds = run(t);
            state.SetIterationTime(seconds);
          }
          state.counters["speedup"] = sequential_seconds / seconds;
        })
        ->Arg(threads)
        ->ArgName("threads")
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond)
        ->Iterations(repetitions());
  }
}

}  // namespace purec::bench
