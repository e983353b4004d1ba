#include "runtime/thread_pool.h"

#include <cstdlib>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#endif

namespace purec::rt {

namespace {

/// One spin-loop breath: keep the core's pipeline polite while polling.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

#if defined(__linux__)
inline void futex_wait(std::atomic<std::uint32_t>& word,
                       std::uint32_t expected) noexcept {
  // The kernel re-checks `word == expected` atomically with enqueueing,
  // so a bump that lands between our user-space check and this call makes
  // it return immediately — missed wakeups are structurally impossible.
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
}

inline void futex_wake_all(std::atomic<std::uint32_t>& word) noexcept {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
}
#endif

}  // namespace

namespace {

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] == '1';
}

}  // namespace

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count == 0) worker_count = 1;
  virtual_workers_ = worker_count;

  // Oversubscription policy: by default never create more OS threads
  // than the hardware can run — surplus worker indices fold onto the
  // existing threads round-robin (worker_loop), which keeps the ladder's
  // high rungs running at full speed instead of paying a context switch
  // per parked sibling per region. PUREC_OVERSUBSCRIBE=1 restores one OS
  // thread per index for scheduling-overhead studies.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::size_t os_threads = worker_count;
  if (os_threads > hw && !env_flag("PUREC_OVERSUBSCRIBE")) os_threads = hw;

  // Spin window before parking. With a hardware thread per pool thread,
  // a few thousand pause iterations (~1 µs) cover the gap between
  // back-to-back regions without ever entering the kernel. Forced
  // oversubscription parks almost immediately: spinning there steals
  // cycles from the very sibling that would signal us. PUREC_SPIN=<n>
  // overrides for experiments (see EXPERIMENTS.md).
  spin_limit_ = (os_threads > hw) ? 1 : 4096;
  if (const char* env = std::getenv("PUREC_SPIN")) {
    const long v = std::atol(env);
    if (v >= 0) spin_limit_ = static_cast<std::size_t>(v);
  }

  workers_.reserve(os_threads - 1);
  for (std::size_t i = 1; i < os_threads; ++i) {
    // os_threads is captured by value: workers_ is still growing while
    // the first threads start, so they must not read workers_.size().
    workers_.emplace_back([this, i, os_threads] { worker_loop(i, os_threads); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  shutdown_ = true;  // published by the start_ bump below
  start_.word.fetch_add(1, std::memory_order_seq_cst);
  wake_all(start_);
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_on_all(FunctionRef<void(std::size_t)> task) {
  const std::size_t stride = os_thread_count();
  if (workers_.empty()) {
    for (std::size_t v = 0; v < virtual_workers_; ++v) task(v);
    return;
  }
  // Publish the region: plain writes first, then the seq_cst generation
  // bump that makes them visible to any worker observing the new value.
  task_ = task;
  remaining_.value.store(workers_.size(), std::memory_order_relaxed);
  const std::uint32_t done_seen = done_.word.load(std::memory_order_relaxed);
  start_.word.fetch_add(1, std::memory_order_seq_cst);
  wake_all(start_);

  // The calling thread is OS thread 0: index 0 plus every stride-th
  // virtual index folded onto it.
  for (std::size_t v = 0; v < virtual_workers_; v += stride) task(v);
  wait_for_change(done_, done_seen);
}

void ThreadPool::worker_loop(std::size_t index, std::size_t stride) {
  std::uint32_t seen = 0;
  for (;;) {
    wait_for_change(start_, seen);
    // No further bump can happen until this worker checks in on done_,
    // so this read latches exactly the generation that woke us.
    seen = start_.word.load(std::memory_order_acquire);
    if (shutdown_) return;
    for (std::size_t v = index; v < virtual_workers_; v += stride) {
      task_(v);
    }
    if (remaining_.value.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.word.fetch_add(1, std::memory_order_seq_cst);
      wake_all(done_);
    }
  }
}

void ThreadPool::wait_for_change(Signal& signal, std::uint32_t last_seen) {
  for (std::size_t spin = 0; spin < spin_limit_; ++spin) {
    if (signal.word.load(std::memory_order_acquire) != last_seen) return;
    cpu_relax();
  }
#if defined(__linux__)
  for (;;) {
    // Advertise intent to sleep, then re-check: the waker reads `parked`
    // after its bump, so in the seq_cst order either we see the bump here
    // or the waker sees our registration and issues the wake.
    signal.parked.fetch_add(1, std::memory_order_seq_cst);
    if (signal.word.load(std::memory_order_seq_cst) != last_seen) {
      signal.parked.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    futex_wait(signal.word, last_seen);
    signal.parked.fetch_sub(1, std::memory_order_relaxed);
    if (signal.word.load(std::memory_order_acquire) != last_seen) return;
  }
#else
  std::unique_lock lock(park_mutex_);
  signal.parked.fetch_add(1, std::memory_order_seq_cst);
  park_cv_.wait(lock, [&] {
    // seq_cst to mirror the futex path's post-registration re-check: the
    // waker's skip-the-notify fast path reads `parked` seq_cst, so this
    // load must be in the same total order or a bump could be missed.
    return signal.word.load(std::memory_order_seq_cst) != last_seen;
  });
  signal.parked.fetch_sub(1, std::memory_order_relaxed);
#endif
}

void ThreadPool::wake_all(Signal& signal) {
  if (signal.parked.load(std::memory_order_seq_cst) == 0) return;
#if defined(__linux__)
  futex_wake_all(signal.word);
#else
  // Taking the mutex orders this wake after any sleeper that registered
  // but has not yet started waiting on the condition variable.
  { std::lock_guard lock(park_mutex_); }
  park_cv_.notify_all();
#endif
}

}  // namespace purec::rt
