// purec::rt::trace behind -DPUREC_RT_TRACE=1: like runtime_stats_test,
// this executable recompiles the hooked runtime TUs with the trace knob on
// (tests/CMakeLists.txt), so chunk/steal/barrier events stream here
// while the production archive keeps the hooks compiled out. Assertions
// cover the ring (overflow -> dropped count), the Chrome-array schema of
// the writer, the cooperative append that merges sequential dumps into one
// valid JSON array, and the live parallel_for hooks.
#include "runtime/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "support/json.h"

namespace purec::rt {
namespace {

static_assert(trace::kEnabled,
              "runtime_trace_test must be built with -DPUREC_RT_TRACE=1");

std::string slurp(std::FILE* file) {
  std::rewind(file);
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  return text;
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string text = slurp(file);
  std::fclose(file);
  return text;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// A scratch trace destination on disk, removed on scope exit. The env
/// knob is redirected through set_path_for_testing so active() is true
/// for the test body regardless of the harness environment.
class ScopedTracePath {
 public:
  explicit ScopedTracePath(const char* name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
    trace::reset();
    trace::set_path_for_testing(path_.c_str());
  }
  ~ScopedTracePath() {
    trace::set_path_for_testing(nullptr);
    trace::reset();
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(RuntimeTrace, InactiveWithoutAPath) {
  trace::set_path_for_testing(nullptr);
  trace::reset();
  EXPECT_FALSE(trace::active());
  // Records while inactive are dropped silently, not stored.
  trace::record(0, trace::EventKind::Region, 10, 20);
}

TEST(RuntimeTrace, WriteEventsEmitsTheChromeArraySchema) {
  ScopedTracePath scratch("runtime_trace_schema.json");
  ASSERT_TRUE(trace::active());
  trace::set_region_name(7, "heat:12");
  trace::record(0, trace::EventKind::Region, 1000, 5000, 7);
  trace::record(1, trace::EventKind::Chunk, 1200, 2200, 7, 0, 64);
  trace::record(1, trace::EventKind::Steal, 2200, 2200, 7, 3);
  trace::record(2, trace::EventKind::BarrierPark, 100, 900);
  trace::record(0, trace::EventKind::BarrierSpin, 50, 60);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  trace::write_events(tmp);
  const std::string text = slurp(tmp);
  std::fclose(tmp);

  EXPECT_EQ(text.front(), '[') << text;
  // Metadata names the process and every worker lane that recorded.
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"process_name\""), std::string::npos) << text;
  EXPECT_NE(text.find("purec-rt"), std::string::npos) << text;
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos) << text;
  // Duration events carry the category and the report join key.
  EXPECT_NE(text.find("\"cat\":\"region\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"cat\":\"chunk\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"cat\":\"steal\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"cat\":\"barrier\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"region_id\":7"), std::string::npos) << text;
  EXPECT_NE(text.find("heat:12"), std::string::npos) << text;

  // The whole thing must be strict JSON (our own parser is the referee).
  std::string error;
  const auto parsed = json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_NE(parsed->as_array(), nullptr);
  EXPECT_GE(parsed->as_array()->size(), 5u);
}

TEST(RuntimeTrace, UnnamedRegionsRenderAsPlaceholders) {
  ScopedTracePath scratch("runtime_trace_placeholder.json");
  trace::record(0, trace::EventKind::Region, 0, 10, 42);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  trace::write_events(tmp);
  const std::string text = slurp(tmp);
  std::fclose(tmp);
  EXPECT_NE(text.find("region 42"), std::string::npos) << text;
}

TEST(RuntimeTrace, RingOverflowCountsDroppedEvents) {
  ScopedTracePath scratch("runtime_trace_overflow.json");
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < trace::kRingCapacity + extra; ++i) {
    trace::record(0, trace::EventKind::Chunk, i, i + 1);
  }
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  trace::write_events(tmp);
  const std::string text = slurp(tmp);
  std::fclose(tmp);
  EXPECT_NE(text.find("trace ring overflow"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":10"), std::string::npos) << text;
  // The stored events are still all there (one ring's worth).
  std::string error;
  const auto parsed = json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
}

TEST(RuntimeTrace, CooperativeAppendMergesSequentialDumps) {
  ScopedTracePath scratch("runtime_trace_append.json");
  trace::record(0, trace::EventKind::Region, 0, 100, 1);
  trace::dump();
  const std::string first = read_file(scratch.path());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front(), '[');

  // dump() cleared the rings; a second dump must splice into the existing
  // array rather than clobbering or double-bracketing it.
  trace::record(1, trace::EventKind::Region, 200, 300, 2);
  trace::dump();
  const std::string merged = read_file(scratch.path());
  EXPECT_GT(merged.size(), first.size());
  EXPECT_EQ(merged.front(), '[');
  std::string error;
  const auto parsed = json::parse(merged, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_NE(parsed->as_array(), nullptr);
  // Two dumps -> two process_name metadata events, one per splice.
  EXPECT_EQ(count_occurrences(merged, "\"process_name\""), 2u);
}

TEST(RuntimeTrace, DumpWithNoEventsLeavesNoFile) {
  ScopedTracePath scratch("runtime_trace_empty.json");
  trace::dump();
  EXPECT_TRUE(read_file(scratch.path()).empty());
}

TEST(RuntimeTrace, ParallelForStreamsChunkEventsWithTheRegionId) {
  ScopedTracePath scratch("runtime_trace_live.json");
  ThreadPool pool(4);
  ForOptions options;
  options.schedule = Schedule::Dynamic;
  options.chunk = 7;
  options.region_id = 9;
  std::atomic<std::int64_t> iterations{0};
  parallel_for(pool, 0, 100,
               [&](std::int64_t) {
                 iterations.fetch_add(1, std::memory_order_relaxed);
               },
               options);
  EXPECT_EQ(iterations.load(), 100);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  trace::write_events(tmp);
  const std::string text = slurp(tmp);
  std::fclose(tmp);
  EXPECT_NE(text.find("\"cat\":\"region\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"cat\":\"chunk\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"region_id\":9"), std::string::npos) << text;
  // 100 iterations in chunks of 7 = 15 claims = 15 chunk events.
  EXPECT_EQ(count_occurrences(text, "\"cat\":\"chunk\""), 15u);
}

TEST(RuntimeTrace, ResetDropsRecordedEvents) {
  ScopedTracePath scratch("runtime_trace_reset.json");
  trace::record(0, trace::EventKind::Region, 0, 10, 1);
  trace::reset();
  trace::dump();
  EXPECT_TRUE(read_file(scratch.path()).empty());
}

}  // namespace
}  // namespace purec::rt
