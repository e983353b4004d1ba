// The `purecc trace` machinery: the strict JSON parser it ingests traces
// with, the event aggregation + report join in analyze_trace, and the
// nearest-rank percentiles over each region's execution durations (the
// rank edges matter: p50 of 100 samples is the 50th, not the 51st).
#include "tools/trace_analysis.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/json.h"

namespace purec::tools {
namespace {

json::Value parse_or_die(const std::string& text) {
  std::string error;
  std::optional<json::Value> v = json::parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << "\nin: " << text;
  return v.has_value() ? *v : json::Value();
}

// ---------------------------------------------------------------------------
// json::parse
// ---------------------------------------------------------------------------

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(parse_or_die("null").is_null());
  EXPECT_TRUE(parse_or_die("true").as_bool());
  EXPECT_EQ(parse_or_die("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(parse_or_die("2.5e2").as_double(), 250.0);
  EXPECT_EQ(parse_or_die("\"hi\"").as_string(), "hi");
  const json::Value arr = parse_or_die("[1, [2, 3], {}]");
  ASSERT_NE(arr.as_array(), nullptr);
  EXPECT_EQ(arr.as_array()->size(), 3u);
  const json::Value obj = parse_or_die("{\"a\": {\"b\": 7}}");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->find("b")->as_int(), 7);
}

TEST(JsonParse, IntegersStayIntegersDoublesBecomeDoubles) {
  // Large trace timestamps must survive without double rounding.
  EXPECT_EQ(parse_or_die("9007199254740993").as_int(), 9007199254740993);
  EXPECT_DOUBLE_EQ(parse_or_die("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_or_die("1e3").as_double(), 1000.0);
}

TEST(JsonParse, StringEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(parse_or_die(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_or_die(R"("\u0041")").as_string(), "A");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_or_die(R"("\uD83D\uDE00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInputWithAnOffset) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "\"bad \\x escape\"",
        "\"bad hex \\uZZZZ\""}) {
    std::string error;
    EXPECT_FALSE(json::parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("at byte"), std::string::npos) << bad;
  }
}

TEST(JsonParse, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_FALSE(json::parse(deep, &error).has_value());
}

// ---------------------------------------------------------------------------
// analyze_trace
// ---------------------------------------------------------------------------

// What an --instrument build writes under PUREC_TRACE: metadata, one X
// event per region execution (stamped with the region_id), the per-worker
// "<region> chunks" counter, and an overflow marker.
const char* kEmittedTrace = R"json([
  {"name":"process_name","ph":"M","pid":1,"args":{"name":"purec-instr"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
  {"name":"heat:12","cat":"region","ph":"X","pid":1,"tid":1,
   "ts":0.0,"dur":2000.0,"args":{"region_id":0}},
  {"name":"heat:12","cat":"region","ph":"X","pid":1,"tid":1,
   "ts":3000.0,"dur":500.0,"args":{"region_id":0}},
  {"name":"heat:12 chunks","ph":"C","pid":1,
   "ts":4000.0,"args":{"w0":3,"w1":1}},
  {"name":"purec: trace ring overflow","ph":"i","pid":1,"tid":1,
   "ts":4001.0,"s":"g","args":{"dropped":5}}
])json";

const char* kReportV3 = R"json({
  "report_version": 3,
  "scops": [{
    "region_id": 0,
    "function": "heat",
    "location": {"line": 12},
    "parallelized": true,
    "schedule_clause": "schedule(dynamic, 16)",
    "tiled": false
  }]
})json";

TEST(AnalyzeTrace, AggregatesTheEmittedSchema) {
  const json::Value trace = parse_or_die(kEmittedTrace);
  std::string error;
  const auto summary = analyze_trace(trace, nullptr, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  ASSERT_EQ(summary->regions.size(), 1u);
  const RegionTrace& region = summary->regions.begin()->second;
  EXPECT_EQ(region.name, "heat:12");
  EXPECT_EQ(region.region_id, 0);
  EXPECT_EQ(region.executions, 2u);
  EXPECT_DOUBLE_EQ(region.wall_us, 2500.0);
  EXPECT_EQ(region.chunks, 4u);
  EXPECT_EQ(region.workers.at(0), 3u);
  EXPECT_EQ(region.workers.at(1), 1u);
  EXPECT_DOUBLE_EQ(region_imbalance(region), 1.5);
  EXPECT_EQ(summary->dropped, 5u);
}

TEST(AnalyzeTrace, SkipsEventsFromOtherWritersWithoutError) {
  // The emitted schema with foreign events spliced in: per-chunk, steal
  // and barrier records another tracer once wrote on pid 2, plus unknown
  // categories and phases. None of them may change the aggregate.
  const json::Value trace = parse_or_die(R"json([
    {"name":"heat:12","cat":"region","ph":"X","pid":1,"tid":1,
     "ts":0.0,"dur":2000.0,"args":{"region_id":0}},
    {"name":"heat:12 chunks","ph":"C","pid":1,"ts":2000.0,
     "args":{"w0":2,"w1":2}},
    {"name":"process_name","ph":"M","pid":2,"args":{"name":"purec-rt"}},
    {"name":"chunk","cat":"chunk","ph":"X","pid":2,"tid":0,
     "ts":100.0,"dur":300.0,"args":{"region_id":0,"begin":0,"end":8}},
    {"name":"steal","cat":"steal","ph":"i","pid":2,"tid":1,"ts":150.0,
     "s":"t","args":{"region_id":0,"victim":0}},
    {"name":"barrier_park","cat":"barrier","ph":"X","pid":2,"tid":2,
     "ts":0.0,"dur":500.0,"args":{}},
    {"name":"gc","cat":"v8","ph":"X","pid":3,"ts":0.0,"dur":9.0},
    {"name":"flow","cat":"region","ph":"s","pid":1,"ts":1.0,"id":7},
    {"name":"async","ph":"b","pid":1,"ts":1.0,"args":{"region_id":0}},
    {"name":"not a counter","ph":"C","pid":1,"ts":1.0,"args":{"w0":99}},
    {"name":"bare"}
  ])json");
  std::string error;
  const auto summary = analyze_trace(trace, nullptr, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  ASSERT_EQ(summary->regions.size(), 1u);
  const RegionTrace& region = summary->regions.begin()->second;
  EXPECT_EQ(region.name, "heat:12");
  EXPECT_EQ(region.executions, 1u);
  EXPECT_DOUBLE_EQ(region.wall_us, 2000.0);
  EXPECT_EQ(region.chunks, 4u);
  EXPECT_DOUBLE_EQ(region_imbalance(region), 1.0);
  EXPECT_EQ(summary->dropped, 0u);
  const std::string text = render_trace_summary(*summary);
  EXPECT_EQ(text.find("steal"), std::string::npos) << text;
  EXPECT_EQ(text.find("barrier"), std::string::npos) << text;
}

TEST(AnalyzeTrace, JoinsTheReportByRegionId) {
  const json::Value trace = parse_or_die(kEmittedTrace);
  const json::Value report = parse_or_die(kReportV3);
  const auto summary = analyze_trace(trace, &report);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->report_version, 3);
  const RegionTrace& region = summary->regions.begin()->second;
  EXPECT_TRUE(region.in_report);
  EXPECT_TRUE(region.parallelized);
  EXPECT_EQ(region.schedule_clause, "schedule(dynamic, 16)");
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find("heat:12"), std::string::npos) << text;
  EXPECT_NE(text.find("schedule(dynamic, 16)"), std::string::npos) << text;
  EXPECT_NE(text.find("imbalance=1.500 chunks=4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dropped events=5"), std::string::npos) << text;
}

TEST(AnalyzeTrace, DecisionsTailNamesFoldedGuards) {
  const json::Value trace = parse_or_die(kEmittedTrace);
  const json::Value report = parse_or_die(R"json({
    "report_version": 6,
    "scops": [{
      "region_id": 0,
      "function": "heat",
      "location": {"line": 12},
      "parallelized": true,
      "fissioned": true,
      "fission_groups": 2,
      "fission_parallel_groups": 1,
      "guards_folded": 1
    }]
  })json");
  const auto summary = analyze_trace(trace, &report);
  ASSERT_TRUE(summary.has_value());
  const RegionTrace& region = summary->regions.begin()->second;
  EXPECT_EQ(region.decisions, " fission=2g/1p folded=1");
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find("fission=2g/1p folded=1"), std::string::npos)
      << text;
}

TEST(AnalyzeTrace, ImbalanceArithmetic) {
  RegionTrace region;
  EXPECT_DOUBLE_EQ(region_imbalance(region), 0.0);
  // Chunk counts 3 and 1: max / mean = 3 / 2 = 1.5.
  region.workers[0] = 3;
  region.workers[1] = 1;
  EXPECT_DOUBLE_EQ(region_imbalance(region), 1.5);
  // Workers that claimed nothing do not dilute the mean.
  region.workers[2] = 0;
  EXPECT_DOUBLE_EQ(region_imbalance(region), 1.5);
}

TEST(AnalyzeTrace, SharedLastLaneIsLeftOutOfTheImbalance) {
  // Threads 63 and up share the runtime's last lane ("w63+"): two lanes
  // of 2 chunks plus a shared lane of 6 is balanced, and says so.
  const std::optional<TraceSummary> summary = analyze_trace(
      parse_or_die(R"([{"name":"k:3 chunks","ph":"C","pid":1,"ts":1,)"
                   R"("args":{"w0":2,"w62":2,"w63+":6}}])"),
      nullptr);
  ASSERT_TRUE(summary.has_value());
  const RegionTrace& region = summary->regions.at("k:3");
  EXPECT_EQ(region.chunks, 10u);
  EXPECT_EQ(region.shared_lane_chunks, 6u);
  EXPECT_EQ(region.workers.count(63), 0u);
  EXPECT_DOUBLE_EQ(region_imbalance(region), 1.0);
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find("imbalance=1.000 chunks=10"), std::string::npos)
      << text;
  EXPECT_NE(text.find("shared lane: 6 chunks of threads 63 and up, left "
                      "out of the imbalance"),
            std::string::npos)
      << text;
}

TEST(AnalyzeTrace, RejectsNonArrayInput) {
  std::string error;
  EXPECT_FALSE(analyze_trace(parse_or_die("{}"), nullptr, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(analyze_trace(parse_or_die("[1, 2]"), nullptr, &error)
                   .has_value());
}

// ---------------------------------------------------------------------------
// duration percentiles
// ---------------------------------------------------------------------------

/// A trace of one region executed once per entry of `durations_us`.
std::string trace_of(const std::vector<int>& durations_us) {
  std::string text = "[";
  for (std::size_t i = 0; i < durations_us.size(); ++i) {
    if (i != 0) text += ",";
    text += R"({"name":"heat:12","cat":"region","ph":"X","ts":0,"dur":)" +
            std::to_string(durations_us[i]) + R"(,"args":{"region_id":0}})";
  }
  return text + "]";
}

TEST(TracePercentiles, NearestRankOverOneToOneHundredMicroseconds) {
  // Recorded out of order: the analysis sorts before ranking.
  std::vector<int> durations;
  for (int us = 100; us >= 1; --us) durations.push_back(us);
  const auto summary =
      analyze_trace(parse_or_die(trace_of(durations)), nullptr);
  ASSERT_TRUE(summary.has_value());
  const RegionTrace& region = summary->regions.at("heat:12");
  EXPECT_DOUBLE_EQ(duration_percentile_us(region, 50), 50.0);
  EXPECT_DOUBLE_EQ(duration_percentile_us(region, 90), 90.0);
  EXPECT_DOUBLE_EQ(duration_percentile_us(region, 99), 99.0);
  EXPECT_DOUBLE_EQ(duration_percentile_us(region, 100), 100.0);
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find(" p50_us=50.000 p90_us=90.000 p99_us=99.000\n"),
            std::string::npos)
      << text;
}

TEST(TracePercentiles, OneExecutionIsEveryPercentile) {
  const auto summary = analyze_trace(parse_or_die(trace_of({42})), nullptr);
  ASSERT_TRUE(summary.has_value());
  const RegionTrace& region = summary->regions.at("heat:12");
  EXPECT_DOUBLE_EQ(duration_percentile_us(region, 50), 42.0);
  EXPECT_DOUBLE_EQ(duration_percentile_us(region, 99), 42.0);
  EXPECT_NE(render_trace_summary(*summary).find(
                "p50_us=42.000 p90_us=42.000 p99_us=42.000"),
            std::string::npos);
}

TEST(TracePercentiles, RankRoundsUp) {
  // p50 of {1, 2, 3} is rank ceil(1.5) = 2, the middle sample.
  const auto summary =
      analyze_trace(parse_or_die(trace_of({3, 1, 2})), nullptr);
  ASSERT_TRUE(summary.has_value());
  EXPECT_DOUBLE_EQ(
      duration_percentile_us(summary->regions.at("heat:12"), 50), 2.0);
}

TEST(TracePercentiles, RegionWithoutExecutionsPrintsNone) {
  // Chunk counters alone (no X event): nothing to rank.
  const auto summary = analyze_trace(
      parse_or_die(R"([{"name":"heat:12 chunks","ph":"C","ts":0,)"
                   R"("args":{"w0":4}}])"),
      nullptr);
  ASSERT_TRUE(summary.has_value());
  EXPECT_DOUBLE_EQ(
      duration_percentile_us(summary->regions.at("heat:12"), 50), 0.0);
  const std::string text = render_trace_summary(*summary);
  EXPECT_EQ(text.find("p50_us"), std::string::npos) << text;
}

TEST(TracePercentiles, OverflowSaysTheyCoverOnlyRecordedExecutions) {
  const auto summary = analyze_trace(parse_or_die(kEmittedTrace), nullptr);
  ASSERT_TRUE(summary.has_value());
  const std::string text = render_trace_summary(*summary);
  // Two recorded executions, 2000 and 500 us; five more were dropped.
  EXPECT_NE(text.find("executions=2 "), std::string::npos) << text;
  EXPECT_NE(text.find("p50_us=500.000 p90_us=2000.000 p99_us=2000.000"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dropped events=5"), std::string::npos) << text;
  EXPECT_NE(text.find("percentiles cover only the recorded executions"),
            std::string::npos)
      << text;
  // The trace buffer has a fixed capacity; no knob raises it.
  EXPECT_EQ(text.find("raise"), std::string::npos) << text;
}

TEST(TraceTool, LoadJsonFileReportsOpenAndParseErrors) {
  std::string error;
  EXPECT_FALSE(
      load_json_file("/nonexistent/trace.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
  const std::string path =
      std::string(::testing::TempDir()) + "trace_tool_bad.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("[1, 2", f);
  std::fclose(f);
  error.clear();
  EXPECT_FALSE(load_json_file(path, &error).has_value());
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace purec::tools
