// A persistent worker pool — the execution substrate standing in for the
// OpenMP runtime in the paper's measurements. Threads are created once and
// parked between parallel regions so that per-region overhead stays
// comparable to a warm OpenMP pool.
//
// Region launch is a generation-counter (sense-reversing) barrier with a
// spin-then-park wait on both edges: workers spin a bounded number of
// iterations on the generation word before sleeping in the kernel (futex
// on Linux, condvar elsewhere), and the caller does the same on the
// completion word. Hot back-to-back regions never enter the kernel; idle
// pools consume no CPU. Dispatch is a two-word FunctionRef, so launching
// a region never allocates, and every cross-thread counter sits on its
// own cache line.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/function_ref.h"

namespace purec::rt {

/// Destructive interference guard for the pool/loop counters. (The C++17
/// `std::hardware_destructive_interference_size` is deliberately avoided:
/// gcc warns that its value is ABI-unstable across -mtune settings.)
inline constexpr std::size_t kCacheLineBytes = 64;

class ThreadPool {
 public:
  /// Creates a pool presenting `worker_count` (>= 1) workers. Worker
  /// counts above the hardware concurrency are allowed (the paper's
  /// 64-core sweeps oversubscribe this machine; see EXPERIMENTS.md) but
  /// are virtualized by default: OS threads are capped at the hardware
  /// concurrency and surplus worker *indices* are folded round-robin onto
  /// them, so an oversubscribed region launch costs function calls, not
  /// futile context switches. Set PUREC_OVERSUBSCRIBE=1 to force one OS
  /// thread per worker (true oversubscription, for scheduling-overhead
  /// studies); such pools shorten the spin window so parked siblings
  /// yield the core quickly.
  explicit ThreadPool(std::size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The number of worker indices run_on_all dispatches (NOT necessarily
  /// the number of OS threads — see the constructor).
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return virtual_workers_;
  }

  /// OS threads actually carrying the indices (the calling thread
  /// included). Equal to worker_count() unless the pool is virtualizing
  /// an oversubscribed request.
  [[nodiscard]] std::size_t os_thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs `task(worker_index)` once for every index in
  /// [0, worker_count()), distributed over the pool's OS threads; the
  /// calling thread participates (it always runs index 0) and the call
  /// returns when all indices are done. Indices sharing an OS thread run
  /// sequentially, so tasks must not synchronize *between* worker indices
  /// (pure data-parallel chunks — the only thing the runtime emits —
  /// never do). Exceptions thrown by tasks terminate (tasks are expected
  /// to be noexcept compute kernels). The referenced callable must stay
  /// alive for the duration of the call — trivially true for the usual
  /// `pool.run_on_all([&](...){...})` shape.
  void run_on_all(FunctionRef<void(std::size_t)> task);

 private:
  /// A 32-bit futex word on its own cache line. 32 bits because Linux
  /// futexes operate on exactly 4 bytes; generation wraparound at 2^32 is
  /// harmless (equality against the last-seen value is all that matters).
  /// `parked` counts threads sleeping in the kernel on `word`, letting
  /// wakers skip the futex syscall entirely when every waiter is still in
  /// its spin window (the hot back-to-back-regions case).
  struct alignas(kCacheLineBytes) Signal {
    std::atomic<std::uint32_t> word{0};
    std::atomic<std::uint32_t> parked{0};
  };

  struct alignas(kCacheLineBytes) Counter {
    std::atomic<std::size_t> value{0};
  };

  void worker_loop(std::size_t index, std::size_t stride);

  /// Blocks until `signal.word != last_seen`: bounded spin, then park.
  void wait_for_change(Signal& signal, std::uint32_t last_seen);
  /// Wakes every thread parked in wait_for_change on `signal`.
  void wake_all(Signal& signal);

  std::vector<std::thread> workers_;
  std::size_t virtual_workers_ = 1;  // indices presented to callers
  std::size_t spin_limit_ = 0;       // set once in the constructor

  Signal start_;      // bumped to publish a region to workers
  Signal done_;       // bumped by the last worker to finish
  Counter remaining_; // workers still running the current region

  // Written only between regions (before the start_ bump that publishes
  // them), so workers read them race-free.
  FunctionRef<void(std::size_t)> task_;
  bool shutdown_ = false;

  // Parking fallback for non-futex platforms; also used by wake_all to
  // order wakes against sleepers. Never touched on the spin fast path.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

}  // namespace purec::rt
