// Trace analysis for `purecc trace` — ingests the Chrome trace-event array
// an `--instrument` build writes under PUREC_TRACE (runtime/c/
// purec_instr.h: one "X" event per region execution, one "<region> chunks"
// "C" counter per region, an overflow instant carrying args.dropped, "M"
// metadata; any other event is skipped) and optionally the compile-time
// JSON report (report_version >= 3), joining the two through the stable
// `region_id` the compiler stamps on scops and the runtime stamps on
// events. The result answers the questions a schedule experiment asks:
// where did the wall time go, how long did one execution take (exact
// nearest-rank percentiles over the "X" durations, the only per-execution
// latency record an --instrument build keeps), how unevenly were the outer
// iterations split across workers, and which compiler decision (schedule
// clause, fission, reduction) produced that behavior. Comparing two
// commits is bench/e2e's job, not this tool's.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/json.h"

namespace purec::tools {

/// Everything the trace says about one region, joined (when a report is
/// given) with what the compiler decided about it.
struct RegionTrace {
  std::string name;              ///< "function:line"
  std::int64_t region_id = -1;   ///< args.region_id; -1 when absent
  std::uint64_t executions = 0;  ///< X events with cat "region"
  double wall_us = 0.0;          ///< summed duration of those events
  std::vector<double> durations_us;  ///< each of those durations, ascending
  std::uint64_t chunks = 0;      ///< outer iterations claimed, all workers
  std::map<std::int64_t, std::uint64_t> workers;  ///< worker -> chunks
  /// Chunks of the shared last lane ("w63+": every thread from 63 up),
  /// counted in `chunks` but not in `workers`: one lane for many threads
  /// says nothing about balance.
  std::uint64_t shared_lane_chunks = 0;
  // Joined from the report's scops[] entry (valid when in_report).
  bool in_report = false;
  bool parallelized = false;
  std::string schedule_clause;  ///< "" = implementation default
  std::string decisions;        ///< compact "fission=2g/1p fused=1 ..." tail
};

struct TraceSummary {
  std::map<std::string, RegionTrace> regions;  ///< keyed by region name
  std::uint64_t dropped = 0;  ///< summed args.dropped of overflow markers
  std::int64_t report_version = 0;  ///< 0 when no report was joined
};

/// Aggregates a parsed trace array; `report` (nullable) joins compiler
/// decisions onto regions by region_id first, "function:line" name
/// second. Returns std::nullopt (with *error set) when `trace` is not an
/// array of event objects.
[[nodiscard]] std::optional<TraceSummary> analyze_trace(
    const json::Value& trace, const json::Value* report,
    std::string* error = nullptr);

/// max(worker chunks) / mean(worker chunks) over workers that claimed
/// any, the shared last lane left out. 1.0 = perfectly balanced; 0 when
/// no per-worker data exists.
[[nodiscard]] double region_imbalance(const RegionTrace& region);

/// The nearest-rank `percent`th percentile (1..100) of the region's
/// execution durations: the sample at rank ceil(n * percent / 100).
/// 0 when the region recorded no execution.
[[nodiscard]] double duration_percentile_us(const RegionTrace& region,
                                            unsigned percent);

/// The human rendering of one analysis (the `purecc trace` output).
[[nodiscard]] std::string render_trace_summary(const TraceSummary& s);

/// Reads and parses one JSON document from `path`.
[[nodiscard]] std::optional<json::Value> load_json_file(
    const std::string& path, std::string* error = nullptr);

}  // namespace purec::tools
