#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace purec::rt {
namespace {

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  int calls = 0;
  pool.run_on_all([&](std::size_t index) {
    EXPECT_EQ(index, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, AllWorkersParticipate) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::mutex mutex;
  std::set<std::size_t> seen;
  pool.run_on_all([&](std::size_t index) {
    std::lock_guard lock(mutex);
    seen.insert(index);
  });
  EXPECT_EQ(seen, (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 100; ++round) {
    pool.run_on_all([&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 300);
}

TEST(ThreadPool, ZeroRequestBecomesOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnceStatic) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000,
               [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnceDynamic) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(997);  // prime: ragged chunks
  parallel_for(pool, 0, 997, [&](std::int64_t i) { hits[i].fetch_add(1); },
               {Schedule::Dynamic, 7});
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(3);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, 10, 20, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, MoreThreadsThanWork) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, 0, 3, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBlocked, ChunksArePartition) {
  ThreadPool pool(6);
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for_blocked(pool, 0, 101,
                       [&](std::int64_t b, std::int64_t e) {
                         std::lock_guard lock(mutex);
                         chunks.push_back({b, e});
                       });
  // Static: exactly one contiguous chunk per worker.
  EXPECT_EQ(chunks.size(), 6u);
  std::sort(chunks.begin(), chunks.end());
  std::int64_t expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 101);
}

TEST(ParallelForBlocked, DynamicChunkSizeRespected) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::int64_t> sizes;
  parallel_for_blocked(
      pool, 0, 100,
      [&](std::int64_t b, std::int64_t e) {
        std::lock_guard lock(mutex);
        sizes.push_back(e - b);
      },
      {Schedule::Dynamic, 8});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], 8);
  }
  // ceil(100 / 8) claims, whichever worker wins each race.
  EXPECT_EQ(sizes.size(), 13u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0}),
            100);
}

TEST(ParallelForBlocked, GuidedChunksArePartitionAndShrink) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for_blocked(
      pool, 0, 1000,
      [&](std::int64_t b, std::int64_t e) {
        std::lock_guard lock(mutex);
        chunks.push_back({b, e});
      },
      {Schedule::Guided, 4});
  std::sort(chunks.begin(), chunks.end());
  std::int64_t expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 1000);
  // Guided must not degenerate into per-minimum-chunk claims: the first
  // claim takes remaining/threads = 250, so far fewer than 1000/4 chunks.
  EXPECT_LT(chunks.size(), 250u);
  // And no chunk below the floor except possibly the very last one.
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].second - chunks[i].first, 4);
  }
}

TEST(ParallelForBlocked, StealingCoversEveryIndexExactlyOnce) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(997);  // prime: ragged chunks
  parallel_for_blocked(
      pool, 0, 997,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      {Schedule::Dynamic, 7, /*stealing=*/true});
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBlocked, StealingDrainsImbalancedWork) {
  // All the work is piled at the front of the range (worker 0's share in
  // the initial partition); the range still must be fully drained, and a
  // 1-pixel chunk forces many steals.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for_blocked(
      pool, 0, 64,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      {Schedule::Dynamic, 1, /*stealing=*/true});
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Every schedule × pathological range shape: empty, negative, and a chunk
// far larger than the range must all behave (no hang, no out-of-range
// call, full coverage where the range is non-empty).
struct ScheduleCase {
  const char* name;
  ForOptions options;
};

const ScheduleCase kScheduleCases[] = {
    {"static", {Schedule::Static, 1}},
    {"dynamic1", {Schedule::Dynamic, 1}},
    {"dynamic8", {Schedule::Dynamic, 8}},
    {"guided1", {Schedule::Guided, 1}},
    {"guided16", {Schedule::Guided, 16}},
    {"stealing", {Schedule::Dynamic, 4, true}},
};

class ScheduleEdgeCases : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleEdgeCases, EmptyAndNegativeRangesAreNoops) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  parallel_for(pool, 5, 5, [&](std::int64_t) { ++calls; },
               GetParam().options);
  parallel_for(pool, 7, 3, [&](std::int64_t) { ++calls; },
               GetParam().options);
  parallel_for(pool, -3, -9, [&](std::int64_t) { ++calls; },
               GetParam().options);
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ScheduleEdgeCases, ChunkLargerThanRange) {
  ThreadPool pool(4);
  ForOptions options = GetParam().options;
  options.chunk = 1000;  // far larger than the 7-element range
  std::vector<std::atomic<int>> hits(7);
  parallel_for(pool, 0, 7, [&](std::int64_t i) { hits[i].fetch_add(1); },
               options);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ScheduleEdgeCases, NegativeBeginCoversRange) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, -10, 10, [&](std::int64_t i) { sum.fetch_add(i); },
               GetParam().options);
  EXPECT_EQ(sum.load(), -10);  // -10 + -9 + ... + 9
}

TEST_P(ScheduleEdgeCases, SingleWorkerPoolRunsEverything) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 0, 100, [&](std::int64_t i) { hits[i].fetch_add(1); },
               GetParam().options);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ScheduleEdgeCases, OversubscribedPoolCoversRange) {
  // More workers than this machine has hardware threads: the pool must
  // still partition correctly and terminate (spin windows collapse so
  // parked siblings release the cores).
  const std::size_t workers =
      std::max(2u, std::thread::hardware_concurrency()) * 4;
  ThreadPool pool(workers);
  std::vector<std::atomic<int>> hits(503);
  parallel_for(pool, 0, 503, [&](std::int64_t i) { hits[i].fetch_add(1); },
               GetParam().options);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ScheduleEdgeCases, ::testing::ValuesIn(kScheduleCases),
    [](const ::testing::TestParamInfo<ScheduleCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// parallel_reduce_sum
// ---------------------------------------------------------------------------

TEST(ParallelReduce, SumOfIntegers) {
  ThreadPool pool(8);
  const double sum = parallel_reduce_sum(
      pool, 1, 1001, [](std::int64_t i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(sum, 500500.0);
}

TEST(ParallelReduce, MatchesSequentialForDynamic) {
  ThreadPool pool(8);
  const auto f = [](std::int64_t i) {
    return 1.0 / static_cast<double>(i + 1);
  };
  double expected = 0.0;
  for (int i = 0; i < 5000; ++i) expected += f(i);
  const double sum =
      parallel_reduce_sum(pool, 0, 5000, f, {Schedule::Dynamic, 64});
  EXPECT_NEAR(sum, expected, 1e-9);
}

TEST(ParallelReduce, EmptyRangeIsZero) {
  ThreadPool pool(4);
  EXPECT_EQ(parallel_reduce_sum(pool, 3, 3,
                                [](std::int64_t) { return 1.0; }),
            0.0);
}

TEST(ParallelReduce, GuidedAndStealingCombineDeterministically) {
  // Which worker runs which chunk is racy under guided and stealing, but
  // the partial-sum combination must not care: with integer-valued terms
  // (exact in double) every assignment yields the identical sum. Repeat
  // to give the race room to vary.
  ThreadPool pool(8);
  const auto body = [](std::int64_t i) {
    return static_cast<double>((i * 37 + 11) % 101);
  };
  double expected = 0.0;
  for (int i = 0; i < 4096; ++i) expected += body(i);
  for (const ForOptions& options :
       {ForOptions{Schedule::Guided, 2},
        ForOptions{Schedule::Dynamic, 16, /*stealing=*/true}}) {
    for (int round = 0; round < 20; ++round) {
      EXPECT_DOUBLE_EQ(parallel_reduce_sum(pool, 0, 4096, body, options),
                       expected);
    }
  }
}

TEST(ParallelReduce, ProductOverIntegers) {
  ThreadPool pool(8);
  const std::int64_t product = parallel_reduce(
      pool, 1, 21, std::int64_t{1},
      [](std::int64_t a, std::int64_t b) { return a * b; },
      [](std::int64_t i) { return (i % 3 == 0) ? std::int64_t{2}
                                               : std::int64_t{1}; });
  // Six multiples of 3 in [1, 21): 2^6.
  EXPECT_EQ(product, 64);
}

TEST(ParallelReduce, MinAndMaxAcrossAllSchedules) {
  ThreadPool pool(8);
  const auto body = [](std::int64_t i) {
    return static_cast<double>((i * 37 + 11) % 101);
  };
  double lo = body(0);
  double hi = body(0);
  for (int i = 0; i < 4096; ++i) {
    lo = std::min(lo, body(i));
    hi = std::max(hi, body(i));
  }
  for (const ForOptions& options :
       {ForOptions{Schedule::Static, 1}, ForOptions{Schedule::Dynamic, 16},
        ForOptions{Schedule::Guided, 2},
        ForOptions{Schedule::Dynamic, 16, /*stealing=*/true}}) {
    EXPECT_EQ(parallel_reduce(
                  pool, 0, 4096, body(0),
                  [](double a, double b) { return a < b ? a : b; }, body,
                  options),
              lo);
    EXPECT_EQ(parallel_reduce(
                  pool, 0, 4096, body(0),
                  [](double a, double b) { return a > b ? a : b; }, body,
                  options),
              hi);
  }
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  ThreadPool pool(4);
  EXPECT_EQ(parallel_reduce(
                pool, 5, 5, std::int64_t{42},
                [](std::int64_t a, std::int64_t b) { return a + b; },
                [](std::int64_t) { return std::int64_t{1}; }),
            42);
}

TEST(ParallelReduce, NonCommutativeCombinePreservesWorkerOrder) {
  // Partials merge in worker order after the join, so an associative but
  // non-commutative combine (string-like concatenation modeled as digit
  // appends) must be deterministic under the static schedule, where each
  // worker owns one contiguous chunk.
  ThreadPool pool(4);
  const auto body = [](std::int64_t i) {
    return std::to_string(i % 10);
  };
  std::string expected;
  for (int i = 0; i < 64; ++i) expected += body(i);
  const std::string joined = parallel_reduce(
      pool, 0, 64, std::string{},
      [](std::string a, std::string b) { return a + b; }, body,
      {Schedule::Static, 1});
  EXPECT_EQ(joined, expected);
}

TEST(ParallelReduce, TypeErasedWrapperMatchesTemplate) {
  // The std::function signatures must stay behaviorally identical to the
  // templated core they wrap.
  ThreadPool pool(4);
  const std::function<double(std::int64_t)> erased = [](std::int64_t i) {
    return static_cast<double>(i % 7);
  };
  const double via_wrapper =
      parallel_reduce_sum(pool, 0, 1000, erased, {Schedule::Guided, 4});
  const double via_template = parallel_reduce_sum(
      pool, 0, 1000,
      [](std::int64_t i) { return static_cast<double>(i % 7); },
      {Schedule::Guided, 4});
  EXPECT_DOUBLE_EQ(via_wrapper, via_template);
}

// Thread-count sweep property: the result never depends on the pool size.
class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, ReductionInvariantUnderThreadCount) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  const double sum = parallel_reduce_sum(
      pool, 0, 4096, [](std::int64_t i) {
        return static_cast<double>((i * 37 + 11) % 101);
      });
  double expected = 0.0;
  for (int i = 0; i < 4096; ++i) expected += (i * 37 + 11) % 101;
  EXPECT_DOUBLE_EQ(sum, expected);
}

TEST_P(ThreadSweep, StaticChunksNeverOverlap) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  std::vector<std::atomic<int>> hits(777);
  parallel_for(pool, 0, 777, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Counts, ThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 24, 32, 64));

}  // namespace
}  // namespace purec::rt
