// One workload, measured end to end: set up (reference builds and
// checksums, purecc, gcc, warm-ups), then interleave timed samples until
// the time budget is spent. A traced run instead replays every compile
// layer by layer, runs the plain binaries at 1..nproc threads, and reads
// an instrumented build's trace and memo counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "replay.h"
#include "sample_stats.h"
#include "support/json.h"
#include "workloads.h"

namespace purec::e2e {

struct BenchOptions {
  std::uint64_t seed = 2017;
  double seconds = 15.0;
  /// Per-layer run: compile replay plus instrumented runtime.
  bool traced = false;
  /// One pass of everything (setup, one end-to-end rep, one traced rep).
  bool smoke = false;
  /// The widest OpenMP team a child may use (nproc).
  unsigned threads = 1;
  std::string work_dir;
  std::string programs_dir;
  std::string purecc;
  /// Where traced runs record compile spans.
  SpanRecorder* spans = nullptr;
};

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Spread of the per-repetition values; n == 0 for exact counts.
  SampleStats stats;
};

struct WorkloadResult {
  std::string workload;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::size_t reps = 0;
  /// Samples taken again because the hypervisor stole part of their time.
  std::size_t retaken = 0;
  std::vector<MetricValue> end_to_end;
  std::vector<MetricValue> per_layer;
  /// Per-program medians, the scaling ladder, and the checksums.
  json::Value programs = json::Value::array();

  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

[[nodiscard]] WorkloadResult run_workload(const WorkloadSpec& spec,
                                          const BenchOptions& options);

}  // namespace purec::e2e
