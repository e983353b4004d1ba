// purec::rt::stats — the C++ runtime's twin of the emitted-C --instrument
// counters: region launches and wall time, per-worker chunk claims, steal
// counts, barrier spin/park outcomes, plus a log-bucketed region wall-time
// histogram whose p50/p90/p99 land in the human dump.
//
// Compile-time default OFF. Every hook below compiles to nothing unless
// the translation units are built with -DPUREC_RT_STATS=1 (the
// runtime_stats test target does exactly that), so the production runtime
// pays zero — not "a predicted branch", zero instructions — on its hot
// paths. When enabled, the counters follow the per-CPU pattern the
// emitted-C side uses: one cache-line-padded cell per counter (per worker
// for the chunk tallies), bumped with relaxed atomic adds.
//
// The storage and dump live in stats.cpp and are always compiled, so
// mixed builds (instrumented test objects linking the plain runtime
// archive) link cleanly either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

#ifndef PUREC_RT_STATS
#define PUREC_RT_STATS 0
#endif

namespace purec::rt::stats {

inline constexpr bool kEnabled = PUREC_RT_STATS != 0;
inline constexpr std::size_t kMaxWorkers = 64;

struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};

// ---------------------------------------------------------------------------
// Log-bucketed latency histogram (HdrHistogram-style): values below
// 2^kHistSubBits are recorded exactly; above that, each power-of-two range
// splits into 2^kHistSubBits linear sub-buckets, so relative error is
// bounded at 1/2^kHistSubBits across the whole 64-bit domain. The cell
// arrays are fixed-size and per-worker (relaxed adds on a worker's own
// row — the per-CPU counter pattern), merged only at dump time.
// ---------------------------------------------------------------------------

inline constexpr int kHistSubBits = 3;
inline constexpr int kHistSub = 1 << kHistSubBits;
inline constexpr int kHistCells = (64 - kHistSubBits + 1) * kHistSub;

/// Cell index for a recorded value. Small values map to themselves; the
/// rest map to (exponent, sub-bucket) pairs in increasing value order.
[[nodiscard]] constexpr std::size_t hist_index(std::uint64_t v) noexcept {
  if (v < static_cast<std::uint64_t>(kHistSub)) {
    return static_cast<std::size_t>(v);
  }
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - kHistSubBits;
  return static_cast<std::size_t>(
      ((shift + 1) << kHistSubBits) |
      static_cast<int>((v >> shift) & (kHistSub - 1)));
}

/// Smallest value that lands in cell `index`.
[[nodiscard]] constexpr std::uint64_t
hist_cell_lower(std::size_t index) noexcept {
  if (index < static_cast<std::size_t>(kHistSub)) return index;
  const int shift = static_cast<int>(index >> kHistSubBits) - 1;
  const std::uint64_t base = kHistSub + (index & (kHistSub - 1));
  return base << shift;
}

/// Largest value that lands in cell `index` (percentiles report this
/// bound, so exact-width cells report the exact recorded value).
[[nodiscard]] constexpr std::uint64_t
hist_cell_upper(std::size_t index) noexcept {
  if (index < static_cast<std::size_t>(kHistSub)) return index;
  const int shift = static_cast<int>(index >> kHistSubBits) - 1;
  return hist_cell_lower(index) + ((std::uint64_t{1} << shift) - 1);
}

/// One worker's histogram row. A row is only ever bumped by the worker
/// that owns it (relaxed), and rows start on their own cache line.
struct alignas(64) HistRow {
  std::atomic<std::uint64_t> cells[kHistCells];
};

/// A merged (cross-worker) view of one histogram, for percentile math.
struct HistSnapshot {
  std::uint64_t cells[kHistCells] = {};
  std::uint64_t count = 0;
};

/// Value at the given integer percentile (1..100): the upper bound of the
/// first cell whose cumulative count reaches ceil(percent/100 * count).
/// 0 when the histogram is empty.
[[nodiscard]] std::uint64_t hist_percentile(const HistSnapshot& snapshot,
                                            unsigned percent) noexcept;

/// The global counter block. Members mirror the emitted-C instrument
/// runtime plus the pool internals the C side cannot see.
struct Counters {
  Cell regions;        ///< for_each_chunk launches
  Cell region_ns;      ///< wall time inside launches (ns)
  Cell barrier_spins;  ///< wait_for_change resolved inside the spin window
  Cell barrier_parks;  ///< wait_for_change entered the kernel
  Cell steals;         ///< chunks claimed from another worker's range
  Cell chunks[kMaxWorkers];        ///< chunk claims per worker index
  HistRow region_hist[kMaxWorkers];  ///< region wall time (ns)
};

[[nodiscard]] Counters& counters() noexcept;

/// The calling thread's worker index (set by the runtime while it runs
/// chunks; 0 on threads the pool never touched). Lets subsystems without
/// a worker parameter (barrier waits) attribute their
/// per-worker cells. Plain TLS — call sites gate on kEnabled (or the
/// trace twin's gate) so production builds never touch it.
[[nodiscard]] std::size_t current_worker() noexcept;
void set_current_worker(std::size_t worker) noexcept;

inline void add(Cell& cell, std::uint64_t n = 1) noexcept {
  if constexpr (kEnabled) {
    cell.value.fetch_add(n, std::memory_order_relaxed);
  } else {
    (void)cell;
    (void)n;
  }
}

inline void note_chunk(std::size_t worker) noexcept {
  if constexpr (kEnabled) {
    add(counters().chunks[worker & (kMaxWorkers - 1)]);
  } else {
    (void)worker;
  }
}

inline void record_hist(HistRow* rows, std::size_t worker,
                        std::uint64_t value) noexcept {
  if constexpr (kEnabled) {
    rows[worker & (kMaxWorkers - 1)].cells[hist_index(value)].fetch_add(
        1, std::memory_order_relaxed);
  } else {
    (void)rows;
    (void)worker;
    (void)value;
  }
}

/// Region wall time, recorded into the calling worker's row.
inline void record_region_ns(std::uint64_t ns) noexcept {
  if constexpr (kEnabled) {
    record_hist(counters().region_hist, current_worker(), ns);
  } else {
    (void)ns;
  }
}

/// Merges the per-worker rows of one histogram (dump-time only).
[[nodiscard]] HistSnapshot snapshot_hist(const HistRow* rows) noexcept;
[[nodiscard]] inline HistSnapshot snapshot_region_hist() noexcept {
  return snapshot_hist(counters().region_hist);
}

/// Monotonic nanoseconds; 0 when stats are compiled out (callers guard
/// with kEnabled so the clock read itself vanishes too).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Writes the human summary (purec-rt[...] lines) to `out`; `out` ==
/// nullptr resolves the shared stats stream: PUREC_STATS_FILE in
/// append mode, else stderr — the same contract as the emitted C's
/// purec_stats_out().
void dump(std::FILE* out = nullptr);

/// Zeroes every counter (test isolation).
void reset() noexcept;

}  // namespace purec::rt::stats
