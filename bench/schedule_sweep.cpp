// Schedule sweep + pool-overhead microbenchmark (the runtime substrate's
// perf contract), emitting machine-readable BENCH_schedule_sweep.json.
//
// Part 1 — pool_overhead: region-launch latency (an empty parallel
// region, fork + join) of the spin-then-park pool at 1/2/4/8 threads,
// under its default OS-thread policy and with PUREC_OVERSUBSCRIBE=1.
//
// Part 2 — satellite_sweep: the fig8 AOD workload (late-scene imbalance,
// §4.3.3) under static / dynamic / dynamic+stealing / guided × chunk
// {1,4,16,64} pixels. Checksums must agree across every configuration —
// pixels are independent, so any divergence is a scheduling bug and the
// harness exits nonzero.
//
// Every cell is measured PUREC_REPS times and reported as its median
// with the min and max of the repetitions.
//
// JSON schema: see EXPERIMENTS.md ("Schedule sweep"). Output path:
// $PUREC_BENCH_JSON or ./BENCH_schedule_sweep.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/satellite.h"
#include "bench_common.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ns per empty fork/join region. Pool construction and teardown are
/// excluded; a short warmup gets every worker through its first park.
double measure_region_ns(purec::rt::ThreadPool& pool, int regions) {
  for (int r = 0; r < 200; ++r) pool.run_on_all([](std::size_t) {});
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < regions; ++r) pool.run_on_all([](std::size_t) {});
  return seconds_since(start) * 1e9 / regions;
}

/// Median, min and max of one cell's repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  return {median, samples.front(), samples.back()};
}

struct OverheadRow {
  const char* pool;
  int threads;
  int os_threads;
  Spread ns_per_region;
};

struct SweepRow {
  std::string schedule;
  std::int64_t chunk;
  int threads;
  Spread seconds;
  double checksum;
};

purec::apps::SatelliteConfig sweep_config() {
  purec::apps::SatelliteConfig c;
  c.width = purec::bench::scaled_size(1354, c.width, 96);
  c.height = purec::bench::scaled_size(2030, c.height, 96);
  c.bands = purec::bench::scaled_size(8, c.bands, 4);
  return c;
}

int sweep_threads() {
  std::int64_t threads = 8;
  if (const char* env = std::getenv("PUREC_MAX_THREADS")) {
    const std::int64_t clamp = std::atoll(env);
    if (clamp > 0 && clamp < threads) threads = clamp;
  }
  return static_cast<int>(threads);
}

std::string json_escape_free_number(double v) {
  // JSON numbers may not be NaN/Inf; the harness never produces them, but
  // emit null instead of invalid JSON if a timer or checksum goes bad.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  const bool smoke = purec::bench::smoke_scale();
  const int regions = smoke ? 2000 : 20000;
  const int reps = purec::bench::repetitions();
  bool checksums_ok = true;

  // --- Part 1: pool overhead -------------------------------------------
  // Two lanes per rung: the substrate under its default policy (OS
  // threads capped at the hardware concurrency, surplus indices folded
  // in — see thread_pool.h), and with PUREC_OVERSUBSCRIBE=1 forcing one
  // OS thread per worker, which isolates the barrier from the
  // virtualization.
  std::vector<OverheadRow> overhead;
  std::printf("pool-overhead microbenchmark (%d empty regions/config, "
              "median of %d)\n",
              regions, reps);
  std::printf("%-10s%16s%20s\n", "threads", "spin+park", "spin+park oversub");
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<double> current_ns;
    std::vector<double> oversub_ns;
    int current_os_threads = 0;
    for (int rep = 0; rep < reps; ++rep) {
      {
        purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
        current_os_threads = static_cast<int>(pool.os_thread_count());
        current_ns.push_back(measure_region_ns(pool, regions));
      }
      {
        setenv("PUREC_OVERSUBSCRIBE", "1", 1);
        purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
        unsetenv("PUREC_OVERSUBSCRIBE");
        oversub_ns.push_back(measure_region_ns(pool, regions));
      }
    }
    overhead.push_back(
        {"spin_park", threads, current_os_threads, spread_of(current_ns)});
    overhead.push_back(
        {"spin_park_oversub", threads, threads, spread_of(oversub_ns)});
    std::printf("%-10d%13.0f ns%17.0f ns\n", threads,
                overhead[overhead.size() - 2].ns_per_region.median,
                overhead.back().ns_per_region.median);
  }

  // --- Part 2: fig8 satellite schedule sweep ---------------------------
  const purec::apps::SatelliteConfig config = sweep_config();
  const int threads = sweep_threads();
  purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));

  std::vector<SweepRow> sweep;
  const auto run_one = [&](const std::string& name,
                           const purec::rt::ForOptions& options,
                           std::int64_t reported_chunk) {
    std::vector<double> seconds;
    double checksum = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const purec::apps::RunResult result =
          purec::apps::run_satellite_schedule(config, pool, options);
      if (rep > 0 && result.checksum != checksum) checksums_ok = false;
      checksum = result.checksum;
      seconds.push_back(result.compute_seconds);
    }
    sweep.push_back(
        {name, reported_chunk, threads, spread_of(seconds), checksum});
    std::printf("%-16s chunk=%-4lld %9.1f ms\n", name.c_str(),
                static_cast<long long>(reported_chunk),
                sweep.back().seconds.median * 1e3);
  };

  std::printf("\nfig8 satellite sweep: %dx%dx%d pixels, %d threads\n",
              config.width, config.height, config.bands, threads);
  run_one("static", {purec::rt::Schedule::Static, 0}, 0);
  for (const std::int64_t chunk : {1, 4, 16, 64}) {
    run_one("dynamic", {purec::rt::Schedule::Dynamic, chunk}, chunk);
    run_one("dynamic_steal",
            {purec::rt::Schedule::Dynamic, chunk, /*stealing=*/true},
            chunk);
    run_one("guided", {purec::rt::Schedule::Guided, chunk}, chunk);
  }

  // Pixels are independent: every schedule must compute the identical
  // scene. A drift here is a scheduling bug, not noise.
  for (const SweepRow& row : sweep) {
    if (row.checksum != sweep.front().checksum) {
      std::fprintf(stderr,
                   "schedule_sweep: checksum mismatch for %s,%lld "
                   "(%.6f vs %.6f)\n",
                   row.schedule.c_str(),
                   static_cast<long long>(row.chunk), row.checksum,
                   sweep.front().checksum);
      checksums_ok = false;
    }
  }

  // --- JSON artifact ---------------------------------------------------
  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_schedule_sweep.json";
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "schedule_sweep: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"schedule_sweep\",\n");
  purec::bench::write_json_host_fields(out);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"reps\": %d,\n", reps);
  std::fprintf(out,
               "  \"workload\": {\"name\": \"fig8_satellite\", \"width\": "
               "%d, \"height\": %d, \"bands\": %d},\n",
               config.width, config.height, config.bands);
  std::fprintf(out, "  \"pool_overhead\": [\n");
  for (std::size_t i = 0; i < overhead.size(); ++i) {
    const OverheadRow& row = overhead[i];
    std::fprintf(out,
                 "    {\"pool\": \"%s\", \"threads\": %d, "
                 "\"os_threads\": %d, \"ns_per_region\": %s, "
                 "\"ns_min\": %s, \"ns_max\": %s}%s\n",
                 row.pool, row.threads, row.os_threads,
                 json_escape_free_number(row.ns_per_region.median).c_str(),
                 json_escape_free_number(row.ns_per_region.min).c_str(),
                 json_escape_free_number(row.ns_per_region.max).c_str(),
                 i + 1 < overhead.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"satellite_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    std::fprintf(out,
                 "    {\"schedule\": \"%s\", \"chunk\": %lld, \"threads\": "
                 "%d, \"seconds\": %s, \"seconds_min\": %s, "
                 "\"seconds_max\": %s, \"checksum\": %s}%s\n",
                 row.schedule.c_str(), static_cast<long long>(row.chunk),
                 row.threads,
                 json_escape_free_number(row.seconds.median).c_str(),
                 json_escape_free_number(row.seconds.min).c_str(),
                 json_escape_free_number(row.seconds.max).c_str(),
                 json_escape_free_number(row.checksum).c_str(),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());

  return checksums_ok ? 0 : 1;
}
