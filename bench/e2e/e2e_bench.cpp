// e2e_bench — the repository's end-to-end benchmark. Every workload takes
// C programs through the product path (purecc -> gcc -O2 -fopenmp -> run
// at 1 and nproc OpenMP threads), checks each run's checksum against a
// `gcc -O2 -Dpure=` reference build of the same source, and prints every
// metric by name with its unit. See README.md in this directory.
//
//   e2e_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//             [--out FILE] [--work DIR]
//   e2e_bench --smoke [--benchmark BENCHMARK.json] [--work DIR]
//   e2e_bench --compare A.json B.json [--benchmark BENCHMARK.json]
//   e2e_bench --gen-tu SEED [KERNELS]
//
// The last stdout line of a measuring run is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
// with the end-to-end metrics, or with --trace 1 the per-layer metrics.
#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "child.h"
#include "gen_tu.h"
#include "measure.h"
#include "tools/trace_analysis.h"
#include "workloads.h"

namespace {

using purec::json::Value;
using namespace purec::e2e;

int usage() {
  std::fprintf(
      stderr,
      "usage: e2e_bench [--workload NAME|all] [--seed N] [--seconds S]\n"
      "                 [--trace 0|1] [--out FILE] [--work DIR]\n"
      "       e2e_bench --smoke [--benchmark FILE] [--work DIR]\n"
      "       e2e_bench --compare A.json B.json [--benchmark FILE]\n"
      "       e2e_bench --gen-tu SEED [KERNELS]\n");
  return 2;
}

/// nproc: the CPUs this process may run on.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::string default_benchmark_json() {
  return std::filesystem::exists("BENCHMARK.json")
             ? "BENCHMARK.json"
             : std::string(PUREC_E2E_DIR) + "/../../BENCHMARK.json";
}

std::string gcc_version(const std::string& work_dir) {
  ChildSpec child;
  child.argv = {"gcc", "-dumpfullversion"};
  child.stdout_path = work_dir + "/gcc_version.txt";
  child.timeout_s = 30.0;
  if (!run_child(child).ok()) return "unknown";
  std::ifstream in(child.stdout_path);
  std::string line;
  std::getline(in, line);
  return line;
}

Value stats_json(const MetricValue& m) {
  Value v = Value::object();
  v.set("value", m.value);
  v.set("unit", m.unit);
  v.set("n", m.stats.n);
  if (m.stats.n > 0) {
    v.set("median", m.stats.median);
    v.set("q1", m.stats.q1);
    v.set("q3", m.stats.q3);
    v.set("mad", m.stats.mad);
    v.set("min", m.stats.min);
    v.set("max", m.stats.max);
    if (m.stats.high_percentile > 0.0) {
      v.set("p_high", m.stats.high_percentile);
      v.set("p_high_value", m.stats.high_value);
    }
  }
  return v;
}

void print_metrics(const std::vector<MetricValue>& metrics) {
  for (const MetricValue& m : metrics) {
    std::printf("  %-28s %14.6g %-6s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.stats.n > 0) {
      std::printf("  median %.6g  q1 %.6g  q3 %.6g  n %zu", m.stats.median,
                  m.stats.q1, m.stats.q3, m.stats.n);
      if (m.stats.high_percentile > 0.0) {
        std::printf("  p%g %.6g", m.stats.high_percentile,
                    m.stats.high_value);
      }
    }
    std::printf("\n");
  }
}

Value metric_map(const std::vector<MetricValue>& metrics,
                 const std::string& prefix = "") {
  Value map = Value::object();
  for (const MetricValue& m : metrics) {
    Value entry = Value::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    map.set(prefix + m.name, std::move(entry));
  }
  return map;
}

Value result_line(bool correct, std::size_t attempted, std::size_t failed,
                  Value metrics) {
  Value line = Value::object();
  line.set("correct", correct);
  line.set("attempted", attempted);
  line.set("failed", failed);
  line.set("metrics", std::move(metrics));
  return line;
}

Value workload_json(const WorkloadResult& r) {
  Value w = Value::object();
  w.set("correct", r.correct());
  w.set("attempted", r.attempted);
  w.set("failed", r.failed);
  w.set("fail_ratio", r.attempted == 0 ? 1.0
                                       : static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted));
  w.set("reps", r.reps);
  w.set("retaken", r.retaken);
  Value e2e = Value::object();
  for (const MetricValue& m : r.end_to_end) e2e.set(m.name, stats_json(m));
  w.set("end_to_end", std::move(e2e));
  Value layers = Value::object();
  for (const MetricValue& m : r.per_layer) layers.set(m.name, stats_json(m));
  w.set("per_layer", std::move(layers));
  w.set("programs", r.programs);
  Value failures = Value::array();
  for (const std::string& f : r.failures) failures.push(f);
  w.set("failures", std::move(failures));
  return w;
}

WorkloadResult run_one(const std::string& name, const BenchOptions& options,
                       Scale scale) {
  const std::optional<WorkloadSpec> spec =
      make_workload(name, options.seed, scale);
  const auto start = std::chrono::steady_clock::now();
  WorkloadResult r = run_workload(*spec, options);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("workload %s: seed %llu, %zu reps, %zu attempted, %zu failed, "
              "%zu retaken after host steal, %.1f s\n",
              name.c_str(), static_cast<unsigned long long>(options.seed),
              r.reps, r.attempted, r.failed, r.retaken, elapsed);
  for (const std::string& f : r.failures) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  print_metrics(r.end_to_end);
  print_metrics(r.per_layer);
  std::fflush(stdout);
  return r;
}

/// One metric entry of BENCHMARK.json.
struct MetricRule {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;  // end-to-end metrics only
};

std::vector<MetricRule> benchmark_rules(const Value& benchmark,
                                        const char* section) {
  std::vector<MetricRule> rules;
  const Value* list = benchmark.find(section);
  if (list == nullptr || list->as_array() == nullptr) return rules;
  for (const Value& entry : *list->as_array()) {
    const Value* name = entry.find("name");
    if (name == nullptr) continue;
    const Value* better = entry.find("better");
    const Value* bound = entry.find("bound");
    rules.push_back({name->as_string(),
                     better == nullptr || better->as_string() != "higher",
                     bound != nullptr ? bound->as_double() : 0.0});
  }
  return rules;
}

int smoke(BenchOptions options, const std::string& benchmark_path) {
  std::string error;
  const std::optional<Value> benchmark =
      purec::tools::load_json_file(benchmark_path, &error);
  if (!benchmark) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  options.smoke = true;
  const auto start = std::chrono::steady_clock::now();
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const WorkloadResult r = run_one(name, options, Scale::Smoke);
    std::vector<MetricValue> all = r.end_to_end;
    all.insert(all.end(), r.per_layer.begin(), r.per_layer.end());
    // Round-trip the result line through the repo's own JSON parser.
    const std::string line =
        result_line(r.correct(), r.attempted, r.failed, metric_map(all))
            .dump();
    std::printf("%s\n", line.c_str());
    const std::optional<Value> parsed = purec::json::parse(line, &error);
    if (!parsed || !r.correct()) {
      std::printf("smoke: %s failed %s\n", name.c_str(), error.c_str());
      ok = false;
      continue;
    }
    const Value* metrics = parsed->find("metrics");
    for (const char* section : {"end_to_end", "per_layer"}) {
      for (const MetricRule& rule : benchmark_rules(*benchmark, section)) {
        if (metrics == nullptr || metrics->find(rule.name) == nullptr) {
          std::printf("smoke: %s is missing metric %s\n", name.c_str(),
                      rule.name.c_str());
          ok = false;
        }
      }
    }
  }
  std::printf("smoke: %s in %.1f s\n", ok ? "ok" : "FAILED",
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count());
  return ok ? 0 : 1;
}

/// One end-to-end metric of one workload in an --out document.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double n = 0.0;

  /// Half-width of the median's ~95% interval relative to the median:
  /// 1.58 * IQR / sqrt(n), the boxplot notch of McGill, Tukey and Larsen.
  [[nodiscard]] double uncertainty() const {
    if (median == 0.0 || n < 1.0) return 0.0;
    return 1.58 * (q3 - q1) / std::sqrt(n) / std::fabs(median);
  }
};

std::optional<Summary> summary_of(const Value& workload,
                                  const std::string& metric) {
  const Value* e2e = workload.find("end_to_end");
  const Value* s = e2e != nullptr ? e2e->find(metric) : nullptr;
  if (s == nullptr) return std::nullopt;
  const Value* median = s->find("median");
  const Value* q1 = s->find("q1");
  const Value* q3 = s->find("q3");
  const Value* n = s->find("n");
  if (median == nullptr || q1 == nullptr || q3 == nullptr || n == nullptr) {
    return std::nullopt;
  }
  return Summary{median->as_double(), q1->as_double(), q3->as_double(),
                 n->as_double()};
}

/// Median, quartiles, and verdict for every workload x end-to-end metric
/// of two result documents; bounds and directions come from
/// BENCHMARK.json. A metric whose median is less certain than its bound
/// on either side is unresolved rather than within, better, or worse.
/// Exits 1 when any metric got worse beyond its bound.
int compare(const std::string& a_path, const std::string& b_path,
            const std::string& benchmark_path) {
  std::string error;
  const std::optional<Value> a = purec::tools::load_json_file(a_path, &error);
  const std::optional<Value> b =
      a ? purec::tools::load_json_file(b_path, &error) : std::nullopt;
  const std::optional<Value> benchmark =
      b ? purec::tools::load_json_file(benchmark_path, &error)
        : std::nullopt;
  if (!benchmark) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  const Value* a_workloads = a->find("workloads");
  const Value* b_workloads = b->find("workloads");
  if (a_workloads == nullptr || b_workloads == nullptr ||
      a_workloads->as_object() == nullptr) {
    std::fprintf(stderr, "e2e_bench: not an e2e_bench --out document\n");
    return 2;
  }
  std::printf("%-16s %-13s %12s %25s %12s %25s %8s %7s  %s\n", "workload",
              "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
              "delta", "bound", "verdict");
  int worse = 0;
  int unresolved = 0;
  for (const auto& [workload, a_entry] : *a_workloads->as_object()) {
    const Value* b_entry = b_workloads->find(workload);
    if (b_entry == nullptr) continue;
    for (const MetricRule& rule : benchmark_rules(*benchmark, "end_to_end")) {
      const std::optional<Summary> sa = summary_of(a_entry, rule.name);
      const std::optional<Summary> sb = summary_of(*b_entry, rule.name);
      if (!sa || !sb) {
        std::printf("%-16s %-13s missing in one document\n",
                    workload.c_str(), rule.name.c_str());
        ++unresolved;
        continue;
      }
      const double delta =
          sa->median != 0.0 ? (sb->median - sa->median) / std::fabs(sa->median)
                            : 0.0;
      const double worsening = rule.lower_is_better ? delta : -delta;
      const char* verdict = "within";
      if (std::max(sa->uncertainty(), sb->uncertainty()) > rule.bound) {
        verdict = "unresolved";
        ++unresolved;
      } else if (worsening > rule.bound) {
        verdict = "worse";
        ++worse;
      } else if (worsening < -rule.bound) {
        verdict = "better";
      }
      char a_range[64];
      char b_range[64];
      std::snprintf(a_range, sizeof(a_range), "[%.5g, %.5g]", sa->q1, sa->q3);
      std::snprintf(b_range, sizeof(b_range), "[%.5g, %.5g]", sb->q1, sb->q3);
      std::printf("%-16s %-13s %12.6g %25s %12.6g %25s %+7.2f%% %6.0f%%  %s\n",
                  workload.c_str(), rule.name.c_str(), sa->median, a_range,
                  sb->median, b_range, 100.0 * delta, 100.0 * rule.bound,
                  verdict);
    }
  }
  std::printf("compare: %d worse, %d unresolved\n", worse, unresolved);
  return worse > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  options.threads = usable_cpus();
  options.programs_dir = std::string(PUREC_E2E_DIR) + "/programs";
  options.purecc = PUREC_E2E_PURECC;
  options.work_dir = ".bench_build/e2e_work";
  std::string workload = "all";
  std::string out_path;
  std::string benchmark_path = default_benchmark_json();
  std::vector<std::string> compare_paths;
  bool smoke_mode = false;
  bool compare_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const auto number = [&](double* out) {
      const char* v = next();
      if (v == nullptr) return false;
      char* end = nullptr;
      *out = std::strtod(v, &end);
      return end != v && *end == '\0' && *out >= 0.0;
    };
    double value = 0.0;
    if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return usage();
      workload = v;
    } else if (arg == "--seed") {
      if (!number(&value)) return usage();
      options.seed = static_cast<std::uint64_t>(value);
    } else if (arg == "--seconds") {
      if (!number(&value)) return usage();
      options.seconds = value;
    } else if (arg == "--trace") {
      if (!number(&value) || value > 1.0) return usage();
      options.traced = value == 1.0;
    } else if (arg == "--out" || arg == "--work" || arg == "--benchmark") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (arg == "--out") out_path = v;
      if (arg == "--work") options.work_dir = v;
      if (arg == "--benchmark") benchmark_path = v;
    } else if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg == "--compare") {
      compare_mode = true;
      for (int k = 0; k < 2; ++k) {
        const char* v = next();
        if (v == nullptr) return usage();
        compare_paths.emplace_back(v);
      }
    } else if (arg == "--gen-tu") {
      if (!number(&value)) return usage();
      const auto seed = static_cast<std::uint64_t>(value);
      std::size_t kernels =
          make_workload("compile_tu", seed, Scale::Full)->tu_kernels;
      if (i + 1 < argc && number(&value)) {
        kernels = static_cast<std::size_t>(value);
      }
      std::fputs(generate_tu(seed, kernels).c_str(), stdout);
      return 0;
    } else {
      return usage();
    }
  }

  if (compare_mode) {
    return compare(compare_paths[0], compare_paths[1], benchmark_path);
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "e2e_bench: cannot create %s\n",
                 options.work_dir.c_str());
    return 2;
  }
  become_subreaper();
  if (smoke_mode) return smoke(options, benchmark_path);

  std::vector<std::string> names;
  if (workload == "all") {
    names = workload_names();
  } else if (make_workload(workload, options.seed, Scale::Full)) {
    names = {workload};
  } else {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 workload.c_str());
    return usage();
  }
  SpanRecorder spans;
  options.spans = &spans;

  std::vector<WorkloadResult> results;
  for (const std::string& name : names) {
    results.push_back(run_one(name, options, Scale::Full));
  }

  if (options.traced) {
    const std::string spans_path = options.work_dir + "/spans.json";
    std::ofstream(spans_path) << spans.chrome_trace().dump() << "\n";
    std::printf("compile spans (Chrome trace): %s\n", spans_path.c_str());
  }
  if (!out_path.empty()) {
    Value doc = Value::object();
    doc.set("benchmark", "e2e");
    doc.set("hardware_concurrency", std::thread::hardware_concurrency());
    doc.set("nproc", options.threads);
    doc.set("gcc_version", gcc_version(options.work_dir));
    doc.set("build_type", PUREC_E2E_BUILD_TYPE);
    doc.set("seed", static_cast<unsigned long long>(options.seed));
    doc.set("seconds", options.seconds);
    doc.set("traced", options.traced);
    Value workloads = Value::object();
    for (const WorkloadResult& r : results) {
      workloads.set(r.workload, workload_json(r));
    }
    doc.set("workloads", std::move(workloads));
    std::ofstream out(out_path);
    out << doc.dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }

  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Value metrics = Value::object();
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    const std::vector<MetricValue>& list =
        options.traced ? r.per_layer : r.end_to_end;
    const std::string prefix = results.size() == 1 ? "" : r.workload + "/";
    const Value map = metric_map(list, prefix);
    for (const auto& [key, entry] : *map.as_object()) metrics.set(key, entry);
  }
  std::printf("%s\n",
              result_line(correct, attempted, failed, std::move(metrics))
                  .dump()
                  .c_str());
  return 0;
}
