#include "runtime/stats.h"

#include <chrono>
#include <cstdlib>

namespace purec::rt::stats {

Counters& counters() noexcept {
  static Counters instance;
  return instance;
}

namespace {
thread_local std::size_t tls_worker = 0;
}  // namespace

std::size_t current_worker() noexcept { return tls_worker; }

void set_current_worker(std::size_t worker) noexcept {
  tls_worker = worker & (kMaxWorkers - 1);
}

HistSnapshot snapshot_hist(const HistRow* rows) noexcept {
  HistSnapshot snapshot;
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    for (int c = 0; c < kHistCells; ++c) {
      const std::uint64_t n =
          rows[w].cells[c].load(std::memory_order_relaxed);
      snapshot.cells[c] += n;
      snapshot.count += n;
    }
  }
  return snapshot;
}

std::uint64_t hist_percentile(const HistSnapshot& snapshot,
                              unsigned percent) noexcept {
  if (snapshot.count == 0) return 0;
  // ceil(percent/100 * count), clamped to [1, count]: the rank of the
  // observation the percentile names.
  std::uint64_t target = (snapshot.count * percent + 99) / 100;
  if (target == 0) target = 1;
  if (target > snapshot.count) target = snapshot.count;
  std::uint64_t cumulative = 0;
  for (int c = 0; c < kHistCells; ++c) {
    cumulative += snapshot.cells[c];
    if (cumulative >= target) {
      return hist_cell_upper(static_cast<std::size_t>(c));
    }
  }
  return hist_cell_upper(kHistCells - 1);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

[[nodiscard]] std::FILE* stats_stream() {
  static std::FILE* stream = [] {
    const char* path = std::getenv("PUREC_STATS_FILE");
    if (path != nullptr && path[0] != '\0') {
      if (std::FILE* f = std::fopen(path, "a")) return f;
    }
    return stderr;
  }();
  return stream;
}

}  // namespace

void dump(std::FILE* out) {
  if (out == nullptr) out = stats_stream();
  Counters& c = counters();
  const auto get = [](const Cell& cell) {
    return static_cast<unsigned long long>(
        cell.value.load(std::memory_order_relaxed));
  };
  std::fprintf(out,
               "purec-rt[pool] regions=%llu region_ns=%llu "
               "barrier_spins=%llu barrier_parks=%llu steals=%llu\n",
               get(c.regions), get(c.region_ns), get(c.barrier_spins),
               get(c.barrier_parks), get(c.steals));
  bool any = false;
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    if (c.chunks[w].value.load(std::memory_order_relaxed) != 0) any = true;
  }
  if (any) {
    std::fprintf(out, "purec-rt[chunks]");
    for (std::size_t w = 0; w < kMaxWorkers; ++w) {
      const unsigned long long n = get(c.chunks[w]);
      if (n != 0) {
        std::fprintf(out, " w%zu=%llu", w, n);
      }
    }
    std::fprintf(out, "\n");
  }
  const auto dump_hist = [out](const char* label,
                               const HistSnapshot& snapshot) {
    if (snapshot.count == 0) return;
    std::fprintf(out,
                 "purec-rt[%s] count=%llu p50_ns=%llu p90_ns=%llu "
                 "p99_ns=%llu max_ns=%llu\n",
                 label,
                 static_cast<unsigned long long>(snapshot.count),
                 static_cast<unsigned long long>(
                     hist_percentile(snapshot, 50)),
                 static_cast<unsigned long long>(
                     hist_percentile(snapshot, 90)),
                 static_cast<unsigned long long>(
                     hist_percentile(snapshot, 99)),
                 static_cast<unsigned long long>(
                     hist_percentile(snapshot, 100)));
  };
  dump_hist("region_hist", snapshot_region_hist());
}

void reset() noexcept {
  Counters& c = counters();
  const auto zero = [](Cell& cell) {
    cell.value.store(0, std::memory_order_relaxed);
  };
  zero(c.regions);
  zero(c.region_ns);
  zero(c.barrier_spins);
  zero(c.barrier_parks);
  zero(c.steals);
  for (std::size_t w = 0; w < kMaxWorkers; ++w) zero(c.chunks[w]);
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    for (int cell = 0; cell < kHistCells; ++cell) {
      c.region_hist[w].cells[cell].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace purec::rt::stats
