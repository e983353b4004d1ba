#include "tools/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace purec::tools {

namespace {

[[nodiscard]] std::string find_string(const json::Value& obj,
                                      const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

[[nodiscard]] std::int64_t find_int(const json::Value& obj, const char* key,
                                    std::int64_t fallback = 0) {
  const json::Value* v = obj.find(key);
  return v != nullptr && !v->is_null() ? v->as_int(fallback) : fallback;
}

[[nodiscard]] double find_double(const json::Value& obj, const char* key,
                                 double fallback = 0.0) {
  const json::Value* v = obj.find(key);
  return v != nullptr ? v->as_double(fallback) : fallback;
}

[[nodiscard]] bool find_bool(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->as_bool();
}

/// The emitted-C per-worker counter event is named "<region> chunks".
[[nodiscard]] bool strip_suffix(std::string* name, const char* suffix) {
  const std::string s = suffix;
  if (name->size() <= s.size() ||
      name->compare(name->size() - s.size(), s.size(), s) != 0) {
    return false;
  }
  name->resize(name->size() - s.size());
  return true;
}

/// Joins report scops[] onto the aggregated regions: region_id match
/// first, "function:line" name match second.
void join_report(const json::Value& report, TraceSummary* summary) {
  summary->report_version = find_int(report, "report_version");
  const json::Value* scops = report.find("scops");
  const std::vector<json::Value>* entries =
      scops != nullptr ? scops->as_array() : nullptr;
  if (entries == nullptr) return;
  for (const json::Value& scop : *entries) {
    const std::int64_t region_id = find_int(scop, "region_id", -1);
    std::string scop_name = find_string(scop, "function");
    if (const json::Value* loc = scop.find("location")) {
      scop_name += ":" + std::to_string(find_int(*loc, "line"));
    }
    for (auto& [name, region] : summary->regions) {
      const bool id_match =
          region_id >= 0 && region.region_id == region_id;
      if (!id_match && name != scop_name) continue;
      region.in_report = true;
      region.parallelized = find_bool(scop, "parallelized");
      region.schedule_clause = find_string(scop, "schedule_clause");
      std::string decisions;
      if (find_bool(scop, "tiled")) decisions += " tiled";
      if (find_bool(scop, "fissioned")) {
        decisions += " fission=" +
                     std::to_string(find_int(scop, "fission_groups")) +
                     "g/" +
                     std::to_string(
                         find_int(scop, "fission_parallel_groups")) +
                     "p";
      }
      if (find_int(scop, "fused_loops") > 0) {
        decisions +=
            " fused=" + std::to_string(find_int(scop, "fused_loops"));
      }
      if (const json::Value* reds = scop.find("reductions")) {
        if (reds->size() > 0) {
          decisions += " reductions=" + std::to_string(reds->size());
        }
      }
      if (find_int(scop, "guards_folded") > 0) {
        decisions +=
            " folded=" + std::to_string(find_int(scop, "guards_folded"));
      }
      region.decisions = decisions;
    }
  }
}

[[nodiscard]] std::string format_fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::optional<TraceSummary> analyze_trace(const json::Value& trace,
                                          const json::Value* report,
                                          std::string* error) {
  const std::vector<json::Value>* events = trace.as_array();
  if (events == nullptr) {
    if (error != nullptr) {
      *error = "trace is not a JSON array of events";
    }
    return std::nullopt;
  }
  TraceSummary summary;
  const auto region_for = [&summary](std::string name,
                                     std::int64_t region_id)
      -> RegionTrace& {
    RegionTrace& region = summary.regions[name];
    if (region.name.empty()) region.name = std::move(name);
    if (region.region_id < 0) region.region_id = region_id;
    return region;
  };
  for (const json::Value& event : *events) {
    if (event.as_object() == nullptr) {
      if (error != nullptr) *error = "trace contains a non-object event";
      return std::nullopt;
    }
    const std::string ph = find_string(event, "ph");
    std::string name = find_string(event, "name");
    const json::Value* args = event.find("args");
    const std::int64_t region_id =
        args != nullptr ? find_int(*args, "region_id", -1) : -1;
    if (ph == "i") {
      // The overflow marker: executions past the event buffer.
      if (args != nullptr) {
        summary.dropped +=
            static_cast<std::uint64_t>(find_int(*args, "dropped"));
      }
    } else if (ph == "C") {
      // Per-worker chunk totals: "<region> chunks" with one "wN" arg per
      // worker that claimed outer iterations, "wN+" for the lane every
      // thread from N up shares.
      const auto* members = args != nullptr ? args->as_object() : nullptr;
      if (members == nullptr || !strip_suffix(&name, " chunks")) continue;
      RegionTrace& region = region_for(name, region_id);
      for (const auto& [key, value] : *members) {
        if (key.size() < 2 || key[0] != 'w') continue;
        const auto count = static_cast<std::uint64_t>(value.as_int());
        if (key.back() == '+') {
          region.shared_lane_chunks += count;
        } else {
          region.workers[std::atoll(key.c_str() + 1)] += count;
        }
        region.chunks += count;
      }
    } else if (ph == "X" && find_string(event, "cat") == "region") {
      RegionTrace& region = region_for(name, region_id);
      const double dur = find_double(event, "dur");
      region.executions += 1;
      region.wall_us += dur;
      region.durations_us.push_back(dur);
    }
  }
  for (auto& [name, region] : summary.regions) {
    std::sort(region.durations_us.begin(), region.durations_us.end());
  }
  if (report != nullptr) join_report(*report, &summary);
  return summary;
}

double region_imbalance(const RegionTrace& region) {
  std::uint64_t max_chunks = 0;
  std::uint64_t total_chunks = 0;
  std::size_t lanes = 0;
  for (const auto& [worker, chunks] : region.workers) {
    if (chunks == 0) continue;
    max_chunks = std::max(max_chunks, chunks);
    total_chunks += chunks;
    ++lanes;
  }
  if (lanes == 0) return 0.0;
  return static_cast<double>(max_chunks) /
         (static_cast<double>(total_chunks) / static_cast<double>(lanes));
}

double duration_percentile_us(const RegionTrace& region,
                              unsigned percent) {
  const std::size_t n = region.durations_us.size();
  if (n == 0) return 0.0;
  const std::size_t rank = (n * percent + 99) / 100;
  return region.durations_us[std::clamp<std::size_t>(rank, 1, n) - 1];
}

std::string render_trace_summary(const TraceSummary& s) {
  std::string out;
  for (const auto& [name, region] : s.regions) {
    out += "purecc-trace: region " + name;
    if (region.region_id >= 0) {
      out += " id=" + std::to_string(region.region_id);
    }
    out += " executions=" + std::to_string(region.executions);
    out += " wall_ms=" + format_fixed(region.wall_us / 1000.0);
    const double imbalance = region_imbalance(region);
    if (imbalance > 0.0) out += " imbalance=" + format_fixed(imbalance);
    if (region.chunks > 0) {
      out += " chunks=" + std::to_string(region.chunks);
    }
    if (!region.durations_us.empty()) {
      for (const unsigned percent : {50u, 90u, 99u}) {
        out += " p" + std::to_string(percent) + "_us=" +
               format_fixed(duration_percentile_us(region, percent));
      }
    }
    out += "\n";
    if (region.shared_lane_chunks > 0) {
      out += "purecc-trace:   shared lane: " +
             std::to_string(region.shared_lane_chunks) +
             " chunks of threads 63 and up, left out of the imbalance\n";
    }
    if (region.in_report) {
      out += "purecc-trace:   schedule: ";
      out += region.schedule_clause.empty() ? "default"
                                            : region.schedule_clause;
      out += region.parallelized ? " (parallelized" : " (serial";
      out += region.decisions;
      out += ")\n";
    }
  }
  if (s.dropped > 0) {
    out += "purecc-trace: dropped events=" + std::to_string(s.dropped) +
           " (the run outgrew the trace buffer: executions, wall_ms and "
           "percentiles cover only the recorded executions; trace a "
           "shorter run)\n";
  }
  if (out.empty()) out = "purecc-trace: no events\n";
  return out;
}

std::optional<json::Value> load_json_file(const std::string& path,
                                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[16384];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::string parse_error;
  std::optional<json::Value> v = json::parse(text, &parse_error);
  if (!v.has_value() && error != nullptr) {
    *error = path + ": " + parse_error;
  }
  return v;
}

}  // namespace purec::tools
