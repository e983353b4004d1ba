// Trace analysis for `purecc trace` — ingests the Chrome trace-event array
// an `--instrument` build writes under PUREC_TRACE (runtime/c/
// purec_instr.h: one "X" event per region execution, one "<region> chunks"
// "C" counter per region, an overflow instant carrying args.dropped, "M"
// metadata; any other event is skipped) and optionally the compile-time
// JSON report (report_version >= 3), joining the two through the stable
// `region_id` the compiler stamps on scops and the runtime stamps on
// events. The result answers the questions a schedule experiment asks:
// where did the wall time go, how unevenly were the outer iterations split
// across workers, and which compiler decision (schedule clause, fission,
// reduction) produced that behavior.
//
// `diff_traces` compares two analyses region-by-region and flags wall-time
// regressions past a threshold — the CI perf gate behind
// `purecc trace --diff A B`.
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
  std::uint64_t chunks = 0;      ///< outer iterations claimed, all workers
  std::map<std::int64_t, std::uint64_t> workers;  ///< worker -> chunks
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
/// any. 1.0 = perfectly balanced; 0 when no per-worker data exists.
[[nodiscard]] double region_imbalance(const RegionTrace& region);

/// The human rendering of one analysis (the `purecc trace` output).
[[nodiscard]] std::string render_trace_summary(const TraceSummary& s);

struct TraceDiff {
  bool regression = false;  ///< some region's wall time grew past threshold
  double worst_delta = 0.0; ///< max (B-A)/A over matched regions
  std::string text;         ///< per-region comparison + verdict line
};

/// Region-by-region wall-time comparison (A = baseline, B = candidate).
/// `threshold` is fractional: 0.2 flags any region whose wall time grew
/// more than 20%. Regions missing from either side are reported but never
/// flagged (a disappeared region is a schedule change, not a regression).
[[nodiscard]] TraceDiff diff_traces(const TraceSummary& a,
                                    const TraceSummary& b,
                                    double threshold);

/// Reads and parses one JSON document from `path`.
[[nodiscard]] std::optional<json::Value> load_json_file(
    const std::string& path, std::string* error = nullptr);

}  // namespace purec::tools
