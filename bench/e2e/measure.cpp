#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "child.h"
#include "gen_tu.h"
#include "memo/memoizable.h"
#include "tools/trace_analysis.h"

namespace purec::e2e {

namespace {

using Clock = std::chrono::steady_clock;
using Env = std::vector<std::pair<std::string, std::string>>;

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();
// Child timeouts: a hung sample is a failure, never a stalled benchmark.
constexpr double kCompileTimeout = 120.0;
constexpr double kRunTimeout = 60.0;
// Share of a traced run's budget spent replaying compiles; the rest runs
// the instrumented binaries.
constexpr double kReplayShare = 0.25;
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 3.0;
constexpr int kMaxSetups = 15;
constexpr int kPureccSamplesPerBlock = 3;
constexpr std::size_t kCompileEveryNthRep = 2;
// Host-steal filter: on a shared virtual machine the hypervisor takes CPU
// time in bursts; a sample that lost more than this share of its wall
// time to it is retaken.
constexpr double kStealShare = 0.05;
constexpr int kStealRetakes = 2;

/// Replayed layers in run_pure_chain's order, with their metric names.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"preproc.strip", "preproc.strip_ms"},
    {"preproc.cpp", "preproc.cpp_ms"},
    {"lexer", "lexer.ms"},
    {"parser", "parser.ms"},
    {"transform.canon", "transform.canon_ms"},
    {"sema.symbols", "sema.symbols_ms"},
    {"purity.infer", "purity.infer_ms"},
    {"purity.check", "purity.check_ms"},
    {"memo.classify", "memo.classify_ms"},
    {"transform.subst", "transform.subst_ms"},
    {"polyhedral.extract", "polyhedral.extract_ms"},
    {"polyhedral.dependence", "polyhedral.dependence_ms"},
    {"polyhedral.schedule", "polyhedral.schedule_ms"},
    {"polyhedral.codegen", "polyhedral.codegen_ms"},
    {"emit.print", "emit.print_ms"},
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::string first_line(const std::string& text) {
  const std::string line = text.substr(0, text.find('\n'));
  return line.size() > 160 ? line.substr(0, 160) + "..." : line;
}

/// Samples indexed [program][repetition]; NaN marks a failed sample.
using Grid = std::vector<std::vector<double>>;

std::vector<double> finite(const std::vector<double>& row) {
  std::vector<double> ok;
  for (const double v : row) {
    if (!std::isnan(v)) ok.push_back(v);
  }
  return ok;
}

/// Median of a row's successful samples; 0 when none succeeded.
double row_median(const std::vector<double>& row) {
  return median_of(finite(row));
}

enum class Combine { Sum, Geomean, Mean };

double combine(const std::vector<double>& values, Combine how) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  switch (how) {
    case Combine::Sum: return sum;
    case Combine::Geomean: return geomean(values);
    case Combine::Mean: return sum / static_cast<double>(values.size());
  }
  return 0.0;
}

/// The value combines per-program medians (sums for compile times and
/// counts, geometric means for run times and ratios); the spread is that
/// of the same combination taken per repetition. Programs without any
/// sample (e.g. no parallel region to trace) are left out.
MetricValue combined(const char* name, const char* unit, const Grid& grid,
                     Combine how) {
  MetricValue metric{name, unit, 0.0, {}};
  std::vector<const std::vector<double>*> rows;
  std::vector<double> medians;
  for (const std::vector<double>& row : grid) {
    std::vector<double> ok = finite(row);
    if (ok.empty()) continue;
    rows.push_back(&row);
    medians.push_back(median_of(std::move(ok)));
  }
  if (rows.empty()) return metric;
  metric.value = combine(medians, how);
  std::size_t reps = 0;
  for (const auto* row : rows) reps = std::max(reps, row->size());
  std::vector<double> per_rep;
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<double> column;
    for (const auto* row : rows) {
      if (r < row->size() && !std::isnan((*row)[r])) {
        column.push_back((*row)[r]);
      }
    }
    if (column.size() == rows.size()) per_rep.push_back(combine(column, how));
  }
  metric.stats = summarize(std::move(per_rep));
  return metric;
}

/// Paired ratios num/den, row by row and rep by rep.
Grid ratio(const Grid& num, const Grid& den) {
  Grid out(std::min(num.size(), den.size()));
  for (std::size_t p = 0; p < out.size(); ++p) {
    for (std::size_t r = 0; r < num[p].size() && r < den[p].size(); ++r) {
      out[p].push_back(num[p][r] / den[p][r]);
    }
  }
  return out;
}

MetricValue exact(const char* name, const char* unit, double value) {
  return MetricValue{name, unit, value, {}};
}

/// Raw samples in repetition order (null for a failed sample).
json::Value samples_json(const std::vector<double>& row) {
  json::Value out = json::Value::array();
  for (const double v : row) out.push(v);  // NaN serializes as null
  return out;
}

struct Program {
  const ProgramSpec* spec = nullptr;
  std::string dir;
  std::string source_text;
  std::string source_path;
  std::string emitted_text;
  std::string emitted_path;
  std::string ref_bin;
  std::string par_bin;
  std::string instr_bin;
  std::string expected;  // the reference's stdout
  double setup_gcc_ms = kMissing;
  double setup_ref_gcc_ms = kMissing;
};

class Session {
 public:
  Session(const WorkloadSpec& spec, const BenchOptions& options,
          WorkloadResult& result)
      : spec_(spec),
        options_(options),
        result_(result),
        root_(options.work_dir + "/" + spec.name) {}

  /// A failed set-up skips the sampling but still reports every metric
  /// (as 0), so the result keeps its shape and says correct=false.
  void run() {
    bool ok = true;
    // setup_s is the median of several set-ups; a workload whose set-up
    // takes a fraction of a second repeats it until kMinSetupSeconds have
    // passed, so its median is as steady as a slow workload's. Traced and
    // smoke runs report no setup_s and set up once.
    const bool timed = !options_.traced && !options_.smoke;
    const int setups = timed ? kMinSetups : 1;
    const Clock::time_point first = Clock::now();
    for (int i = 0;
         ok && (i < setups || (timed && i < kMaxSetups &&
                               seconds_since(first) < kMinSetupSeconds));
         ++i) {
      const Clock::time_point start = Clock::now();
      ok = setup();
      if (ok) setup_s_.push_back(seconds_since(start));
    }
    sampling_ = true;
    if (!options_.traced || options_.smoke) measure(ok);
    if (options_.traced || options_.smoke) trace(ok);
  }

  json::Value take_programs() { return std::move(programs_json_); }

 private:
  void fail(const Program* p, const std::string& message) {
    ++result_.failed;
    result_.failures.push_back((p != nullptr ? p->spec->name + ": " : "") +
                               message);
  }

  /// Runs one child. After set-up, a sample whose time the hypervisor
  /// stole more than kStealShare of measured the host, not the program,
  /// and is taken again, at most kStealRetakes times. Set-up is timed as a
  /// whole, so retakes there would only add to setup_s.
  ChildResult timed_child(const ChildSpec& child) {
    ChildResult r = run_child(child);
    for (int retake = 0; retake < kStealRetakes && sampling_ && r.ok() &&
                         r.steal_ms > kStealShare * r.wall_ms;
         ++retake) {
      ++result_.retaken;
      r = run_child(child);
    }
    return r;
  }

  /// Compiles with `argv`; returns the wall time or NaN after recording
  /// the failure.
  double compile(const Program& p, std::vector<std::string> argv,
                 const std::string& what) {
    ChildSpec child;
    child.argv = std::move(argv);
    child.stderr_path = p.dir + "/" + what + ".err";
    child.timeout_s = kCompileTimeout;
    ++result_.attempted;
    const ChildResult r = timed_child(child);
    if (!r.ok()) {
      fail(&p, what + ": " + r.describe() + ": " +
                   first_line(read_file(child.stderr_path)));
      return kMissing;
    }
    return r.wall_ms;
  }

  std::vector<std::string> purecc_argv(const Program& p,
                                       const std::string& out,
                                       bool instrument) const {
    std::vector<std::string> argv = {options_.purecc};
    if (instrument) argv.emplace_back("--instrument");
    for (const std::string& f : p.spec->purecc_flags) argv.push_back(f);
    argv.insert(argv.end(), {"-o", out, p.source_path});
    return argv;
  }

  /// Smoke runs check the path, not its speed, and build a third faster
  /// at -O0; reference and emitted builds always share one level.
  const char* opt_level() const { return options_.smoke ? "-O0" : "-O2"; }

  std::vector<std::string> gcc_openmp_argv(const std::string& src,
                                           const std::string& bin) const {
    return {"gcc", opt_level(), "-fopenmp", "-o", bin, src, "-lm"};
  }

  /// The reference build: the same source through plain gcc, `pure`
  /// defined away. It never passes through the compiler under test.
  std::vector<std::string> gcc_reference_argv(const Program& p,
                                              const std::string& bin) const {
    return {"gcc", opt_level(), "-Dpure=", "-o", bin, p.source_path, "-lm"};
  }

  /// Runs a built binary at `threads`; returns the wall time, or NaN
  /// after recording a nonzero exit, a timeout, or a checksum that is
  /// not the reference's. The first reference run defines the checksum.
  double run_binary(Program& p, const std::string& bin, unsigned threads,
                    const Env& extra, const std::string& what,
                    std::vector<std::string> fresh_paths = {}) {
    ChildSpec child;
    child.fresh_paths = std::move(fresh_paths);
    child.argv = {bin};
    child.argv.insert(child.argv.end(), p.spec->args.begin(),
                      p.spec->args.end());
    child.env = {{"OMP_NUM_THREADS", std::to_string(threads)}};
    child.env.insert(child.env.end(), extra.begin(), extra.end());
    child.stdout_path = p.dir + "/run.out";
    child.stderr_path = p.dir + "/run.err";
    child.timeout_s = kRunTimeout;
    ++result_.attempted;
    const ChildResult r = timed_child(child);
    if (!r.ok()) {
      fail(&p, what + " at " + std::to_string(threads) + " threads: " +
                   r.describe() + ": " +
                   first_line(read_file(child.stderr_path)));
      return kMissing;
    }
    const std::string out = read_file(child.stdout_path);
    if (p.expected.empty()) {
      if (out.rfind("checksum ", 0) != 0) {
        fail(&p, what + " printed no checksum: " + first_line(out));
        return kMissing;
      }
      p.expected = out;
    } else if (out != p.expected) {
      fail(&p, what + " at " + std::to_string(threads) +
                   " threads: checksum mismatch: got '" + first_line(out) +
                   "', reference '" + first_line(p.expected) + "'");
      return kMissing;
    }
    last_cpu_ms_ = r.cpu_ms;
    return r.wall_ms;
  }

  /// Everything before the first timed sample: sources (and the seeded
  /// TU), reference builds and checksums, purecc, gcc, one warm-up run of
  /// every binary.
  bool setup() {
    programs_.clear();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    std::string tu;
    if (spec_.tu_kernels > 0) {
      tu = generate_tu(options_.seed, spec_.tu_kernels);
      result_.attempted += 2;
      if (generate_tu(options_.seed, spec_.tu_kernels) != tu) {
        fail(nullptr, "the TU generator gave two sources for one seed");
      }
      if (generate_tu(options_.seed + 1, spec_.tu_kernels) == tu) {
        fail(nullptr, "the TU generator ignored the seed");
      }
    }
    for (const ProgramSpec& ps : spec_.programs) {
      Program p;
      p.spec = &ps;
      p.dir = root_ + "/" + ps.name;
      std::filesystem::create_directories(p.dir, ec);
      p.source_text = ps.source_file.empty()
                          ? tu
                          : read_file(options_.programs_dir + "/" +
                                      ps.source_file);
      p.source_path = p.dir + "/src.c";
      p.emitted_path = p.dir + "/emitted.c";
      p.ref_bin = p.dir + "/ref";
      p.par_bin = p.dir + "/par";
      p.instr_bin = p.dir + "/instr";
      ++result_.attempted;
      if (p.source_text.empty() || !write_file(p.source_path, p.source_text)) {
        fail(&p, "cannot stage the source in " + p.dir);
        return false;
      }
      p.setup_ref_gcc_ms =
          compile(p, gcc_reference_argv(p, p.ref_bin), "gcc-reference");
      if (std::isnan(p.setup_ref_gcc_ms) ||
          std::isnan(run_binary(p, p.ref_bin, 1, {}, "reference")) ||
          std::isnan(compile(p, purecc_argv(p, p.emitted_path, false),
                             "purecc"))) {
        return false;
      }
      p.setup_gcc_ms =
          compile(p, gcc_openmp_argv(p.emitted_path, p.par_bin), "gcc");
      if (std::isnan(p.setup_gcc_ms) ||
          std::isnan(
              run_binary(p, p.par_bin, options_.threads, {}, "emitted"))) {
        return false;
      }
      p.emitted_text = read_file(p.emitted_path);
      programs_.push_back(std::move(p));
    }
    return result_.failed == 0;
  }

  /// Interleaved samples, one closed-loop child at a time. Each rep visits
  /// every program and runs the reference, the 1-thread and the
  /// nproc-thread binary in an order rotated each rep, so a slow phase of
  /// the host hits every configuration alike. Every other rep also takes a
  /// compile block: purecc samples and gcc on the emitted C, next to gcc
  /// on the original source as their control. Compiles cost as much as all
  /// of a rep's runs, so the runs get twice the samples.
  void measure(bool ok) {
    const std::size_t n = programs_.size();
    // One entry per rep; NaN where a rep took no compile block.
    Grid purecc(n), gcc(n), gcc_source(n);
    Grid ref(n), t1(n), tmax(n), tmax_cpu(n);
    const Clock::time_point start = Clock::now();
    std::size_t rep = 0;
    for (; ok && (rep == 0 || (!options_.smoke &&
                               seconds_since(start) < options_.seconds));
         ++rep) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t pi = (k + rep) % n;
        Program& p = programs_[pi];
        const bool compiles = rep % kCompileEveryNthRep == 0;
        purecc[pi].push_back(compiles ? purecc_sample(p) : kMissing);
        // Smoke runs reuse the set-up builds: they check the path, and a
        // second pair of gcc runs would dominate their time.
        if (options_.smoke) {
          gcc[pi].push_back(p.setup_gcc_ms);
          gcc_source[pi].push_back(p.setup_ref_gcc_ms);
        } else if (compiles) {
          gcc_source[pi].push_back(compile(
              p, gcc_reference_argv(p, p.dir + "/sample_ref"),
              "gcc-reference"));
          gcc[pi].push_back(compile(
              p, gcc_openmp_argv(p.emitted_path, p.dir + "/sample"), "gcc"));
        } else {
          gcc_source[pi].push_back(kMissing);
          gcc[pi].push_back(kMissing);
        }
        for (std::size_t j = 0; j < 3; ++j) {
          switch ((rep + j) % 3) {
            case 0:
              ref[pi].push_back(run_binary(p, p.ref_bin, 1, {}, "reference"));
              break;
            case 1:
              t1[pi].push_back(run_binary(p, p.par_bin, 1, {}, "emitted"));
              break;
            default:
              tmax[pi].push_back(
                  run_binary(p, p.par_bin, options_.threads, {}, "emitted"));
              tmax_cpu[pi].push_back(std::isnan(tmax[pi].back())
                                         ? kMissing
                                         : last_cpu_ms_);
          }
        }
      }
    }
    result_.reps = rep;

    result_.end_to_end = {
        MetricValue{"setup_s", "s", median_of(setup_s_), summarize(setup_s_)},
        combined("purecc_vs_gcc", "x", ratio(purecc, gcc_source),
                 Combine::Geomean),
        combined("gcc_emitted_vs_source", "x", ratio(gcc, gcc_source),
                 Combine::Geomean),
        combined("speedup_tmax", "x", ratio(ref, tmax), Combine::Geomean),
        combined("speedup_t1", "x", ratio(ref, t1), Combine::Geomean),
    };
    for (std::size_t pi = 0; pi < n; ++pi) {
      json::Value row = program_row(programs_[pi]);
      row.set("purecc_ms", row_median(purecc[pi]));
      row.set("gcc_ms", row_median(gcc[pi]));
      row.set("gcc_source_ms", row_median(gcc_source[pi]));
      row.set("ref_ms", row_median(ref[pi]));
      row.set("t1_ms", row_median(t1[pi]));
      row.set("tmax_ms", row_median(tmax[pi]));
      // CPU time over wall time at nproc threads: how many cores the
      // emitted binary kept busy, spinning included.
      row.set("tmax_busy_cores", row_median(ratio(tmax_cpu, tmax)[pi]));
      row.set("speedup_t1", row_median(ratio(ref, t1)[pi]));
      row.set("speedup_tmax", row_median(ratio(ref, tmax)[pi]));
      json::Value samples = json::Value::object();
      samples.set("purecc_ms", samples_json(purecc[pi]));
      samples.set("gcc_ms", samples_json(gcc[pi]));
      samples.set("gcc_source_ms", samples_json(gcc_source[pi]));
      samples.set("ref_ms", samples_json(ref[pi]));
      samples.set("t1_ms", samples_json(t1[pi]));
      samples.set("tmax_ms", samples_json(tmax[pi]));
      row.set("samples", std::move(samples));
      programs_json_.push(std::move(row));
    }
  }

  /// The median of a few purecc runs (purecc is cheap next to gcc); each
  /// must reproduce the set-up output byte for byte.
  double purecc_sample(const Program& p) {
    const std::string out = p.dir + "/sample.c";
    std::vector<double> ms;
    for (int s = 0; s < kPureccSamplesPerBlock; ++s) {
      const double one = compile(p, purecc_argv(p, out, false), "purecc");
      if (std::isnan(one)) return kMissing;
      ++result_.attempted;
      if (read_file(out) != p.emitted_text) {
        fail(&p, "purecc output differs between two runs on one input");
        return kMissing;
      }
      ms.push_back(one);
    }
    return median_of(std::move(ms));
  }

  json::Value program_row(const Program& p) const {
    json::Value row = json::Value::object();
    row.set("name", p.spec->name);
    json::Value flags = json::Value::array();
    for (const std::string& f : p.spec->purecc_flags) flags.push(f);
    row.set("purecc_flags", std::move(flags));
    json::Value args = json::Value::array();
    for (const std::string& a : p.spec->args) args.push(a);
    row.set("args", std::move(args));
    std::string checksum = p.expected;
    while (!checksum.empty() && checksum.back() == '\n') checksum.pop_back();
    row.set("checksum", checksum);
    return row;
  }

  /// The per-layer run: the compile replay, then instrumented binaries.
  void trace(bool ok) {
    const Clock::time_point start = Clock::now();
    run_instrumented(replay_compiles(ok, start), start);
  }

  /// Replays every program's compile, alternating the real chain and the
  /// layer-by-layer calls, for a quarter of the budget (at least 3 rounds).
  bool replay_compiles(bool ok, Clock::time_point start) {
    const std::size_t n = programs_.size();
    std::map<std::string, Grid> layers;
    for (const auto& [layer, metric] : kLayerMetrics) layers[layer] = Grid(n);
    Grid chain(n), glue(n);
    std::vector<LayerCounts> counts(n);
    std::vector<ChainOptions> chain_options;
    for (const Program& p : programs_) {
      std::string error;
      const std::optional<ChainOptions> o =
          chain_options_for(p.spec->purecc_flags, &error);
      if (!o) {
        fail(&p, error);
        ok = false;
        break;
      }
      chain_options.push_back(*o);
    }
    for (std::size_t it = 0;
         ok && (it == 0 ||
                (!options_.smoke &&
                 (it < 3 ||
                  seconds_since(start) < options_.seconds * kReplayShare)));
         ++it) {
      for (std::size_t pi = 0; pi < n && ok; ++pi) {
        ++result_.attempted;
        // The span file keeps the first round; later rounds only feed the
        // medians, so the file stays small enough to load.
        SpanRecorder scratch;
        SpanRecorder& spans =
            it == 0 && options_.spans != nullptr ? *options_.spans : scratch;
        const ReplayResult r = replay_program(programs_[pi].spec->name,
                                              programs_[pi].source_text,
                                              chain_options[pi], spans);
        if (!r.ok) {
          fail(&programs_[pi], r.error);
          ok = false;
          break;
        }
        if (it == 0) {
          counts[pi] = r.counts;
        } else if (!(r.counts == counts[pi])) {
          fail(&programs_[pi], "layer counts differ between two compiles");
        }
        chain[pi].push_back(r.chain_ms);
        glue[pi].push_back(r.glue_ms);
        for (auto& [layer, grid] : layers) {
          const auto found = r.layer_ms.find(layer);
          grid[pi].push_back(found != r.layer_ms.end() ? found->second : 0.0);
        }
      }
    }

    auto& out = result_.per_layer;
    for (const auto& [layer, metric] : kLayerMetrics) {
      out.push_back(combined(metric, "ms", layers[layer], Combine::Sum));
    }
    out.push_back(combined("transform.chain_ms", "ms", chain, Combine::Sum));
    out.push_back(combined("transform.glue_ms", "ms", glue, Combine::Sum));
    LayerCounts total;
    for (const LayerCounts& c : counts) {
      total.tokens += c.tokens;
      total.functions += c.functions;
      total.inferred_pure += c.inferred_pure;
      total.scop_candidates += c.scop_candidates;
      total.extracted += c.extracted;
      total.dependences += c.dependences;
      total.parallel_loops += c.parallel_loops;
      total.fissioned += c.fissioned;
      total.thunks += c.thunks;
      total.emitted_bytes += c.emitted_bytes;
    }
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    out.push_back(exact("lexer.tokens", "count", count(total.tokens)));
    out.push_back(exact("parser.functions", "count", count(total.functions)));
    out.push_back(
        exact("purity.inferred_pure", "count", count(total.inferred_pure)));
    out.push_back(exact("purity.scop_candidates", "count",
                        count(total.scop_candidates)));
    out.push_back(exact("polyhedral.extracted_ratio", "ratio",
                        total.scop_candidates == 0
                            ? 0.0
                            : count(total.extracted) /
                                  count(total.scop_candidates)));
    out.push_back(
        exact("polyhedral.dependences", "count", count(total.dependences)));
    out.push_back(exact("polyhedral.parallel_loops", "count",
                        count(total.parallel_loops)));
    out.push_back(
        exact("polyhedral.fissioned", "count", count(total.fissioned)));
    out.push_back(exact("memo.thunks", "count", count(total.thunks)));
    out.push_back(exact("emit.bytes", "bytes", count(total.emitted_bytes)));
    return ok;
  }

  /// What one instrumented run reports besides its time.
  struct RuntimeSample {
    double ms = kMissing;
    double region_share = kMissing;  // region wall / process wall
    double imbalance = kMissing;     // wall-weighted max/mean lane
    double invocations = kMissing;
    double memo_hit_ratio = kMissing;  // missing without memo traffic
    double memo_evictions = kMissing;
  };

  /// Builds the --instrument binaries, then runs the reference, the plain
  /// binary at 1..nproc threads (the scaling ladder), and the instrumented
  /// binary at nproc (traced, with memo counters), rotated like measure(),
  /// until the budget is spent. The ladder uses the plain binary because
  /// the instrumentation's own per-iteration cost would bend it.
  void run_instrumented(bool ok, Clock::time_point start) {
    for (Program& p : programs_) {
      const std::string instr_c = p.dir + "/instr.c";
      ok = ok &&
           !std::isnan(compile(p, purecc_argv(p, instr_c, true), "purecc")) &&
           !std::isnan(
               compile(p, gcc_openmp_argv(instr_c, p.instr_bin), "gcc")) &&
           !std::isnan(run_binary(p, p.instr_bin, options_.threads, {},
                                  "instrumented"));
    }

    const std::size_t n = programs_.size();
    const unsigned top = options_.threads;
    Grid ref(n), instr(n), share(n), imbalance(n), invocations(n),
        hit_ratio(n), evictions(n);
    std::vector<Grid> ladder(n, Grid(top));
    const std::size_t configs = 2 + top;  // reference, 1..top, instrumented
    std::size_t rep = 0;
    for (; ok && (rep == 0 || (!options_.smoke &&
                               seconds_since(start) < options_.seconds));
         ++rep) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t pi = (k + rep) % n;
        Program& p = programs_[pi];
        for (std::size_t j = 0; j < configs; ++j) {
          const std::size_t c = (j + rep) % configs;
          if (c == 0) {
            ref[pi].push_back(run_binary(p, p.ref_bin, 1, {}, "reference"));
          } else if (c <= top) {
            ladder[pi][c - 1].push_back(run_binary(
                p, p.par_bin, static_cast<unsigned>(c), {}, "emitted"));
          } else {
            const RuntimeSample s = instrumented_run(p);
            instr[pi].push_back(s.ms);
            share[pi].push_back(s.region_share);
            imbalance[pi].push_back(s.imbalance);
            invocations[pi].push_back(s.invocations);
            hit_ratio[pi].push_back(s.memo_hit_ratio);
            evictions[pi].push_back(s.memo_evictions);
          }
        }
      }
    }
    result_.reps = rep;
    Grid plain(n);
    for (std::size_t pi = 0; pi < n; ++pi) plain[pi] = ladder[pi][top - 1];

    auto& out = result_.per_layer;
    out.push_back(
        combined("memo.hit_ratio", "ratio", hit_ratio, Combine::Mean));
    out.push_back(
        combined("memo.evictions", "count", evictions, Combine::Sum));
    out.push_back(
        combined("omp.region_share", "ratio", share, Combine::Mean));
    out.push_back(combined("omp.imbalance", "ratio", imbalance, Combine::Mean));
    out.push_back(combined("omp.region_invocations", "count", invocations,
                           Combine::Sum));
    out.push_back(combined("trace.overhead", "ratio", ratio(instr, plain),
                           Combine::Geomean));
    out.push_back(combined("control.ref_ms", "ms", ref, Combine::Geomean));

    for (std::size_t pi = 0; pi < n; ++pi) {
      json::Value row = program_row(programs_[pi]);
      row.set("ref_ms", row_median(ref[pi]));
      row.set("instrumented_tmax_ms", row_median(instr[pi]));
      json::Value rungs = json::Value::array();
      for (unsigned t = 1; t <= top; ++t) {
        json::Value rung = json::Value::object();
        rung.set("threads", t);
        rung.set("ms", row_median(ladder[pi][t - 1]));
        rung.set("speedup",
                 row_median(ratio({ref[pi]}, {ladder[pi][t - 1]})[0]));
        rungs.push(std::move(rung));
      }
      row.set("ladder", std::move(rungs));
      row.set("region_share", row_median(share[pi]));
      row.set("region_invocations", row_median(invocations[pi]));
      programs_json_.push(std::move(row));
    }
  }

  /// One instrumented run at nproc threads, read back through its Chrome
  /// trace (with purecc's own trace analysis) and its memo counters.
  RuntimeSample instrumented_run(Program& p) {
    const std::string trace_path = p.dir + "/trace.json";
    const std::string stats_path = p.dir + "/memo_stats.txt";
    RuntimeSample s;
    // Both files are appended to by the runtime; every attempt starts
    // without them.
    s.ms = run_binary(p, p.instr_bin, options_.threads,
                      {{"PUREC_TRACE", trace_path},
                       {"PUREC_MEMO_STATS", "1"},
                       {"PUREC_STATS_FILE", stats_path}},
                      "instrumented", {trace_path, stats_path});
    if (std::isnan(s.ms)) return s;

    double region_us = 0.0;
    double executions = 0.0;
    double weighted = 0.0;
    double weight = 0.0;
    if (std::filesystem::exists(trace_path)) {
      std::string error;
      std::optional<tools::TraceSummary> summary;
      if (const std::optional<json::Value> doc =
              tools::load_json_file(trace_path, &error)) {
        summary = tools::analyze_trace(*doc, nullptr, &error);
      }
      ++result_.attempted;
      if (!summary) {
        fail(&p, "unreadable trace: " + error);
        return s;
      }
      // Executions past the runtime's event ring are dropped from the
      // trace but counted in its overflow marker.
      executions = static_cast<double>(summary->dropped);
      for (const auto& [name, region] : summary->regions) {
        region_us += region.wall_us;
        executions += static_cast<double>(region.executions);
        const double lanes = tools::region_imbalance(region);
        if (lanes > 0.0) {
          weighted += lanes * region.wall_us;
          weight += region.wall_us;
        }
      }
    }
    s.region_share = region_us / (s.ms * 1000.0);
    s.invocations = executions;
    if (weight > 0.0) s.imbalance = weighted / weight;

    double hits = 0.0;
    double misses = 0.0;
    double evictions = 0.0;
    for (const auto& [fn, entry] :
         parse_memo_profile(read_file(stats_path))) {
      hits += static_cast<double>(entry.hits);
      misses += static_cast<double>(entry.misses);
      evictions += static_cast<double>(entry.evictions);
    }
    if (hits + misses > 0.0) {
      s.memo_hit_ratio = hits / (hits + misses);
      s.memo_evictions = evictions;
    }
    return s;
  }

 private:
  const WorkloadSpec& spec_;
  const BenchOptions& options_;
  WorkloadResult& result_;
  std::string root_;
  std::vector<Program> programs_;
  std::vector<double> setup_s_;
  double last_cpu_ms_ = 0.0;  // rusage of the last successful run_binary
  bool sampling_ = false;     // set-up done: stolen samples are retaken
  json::Value programs_json_ = json::Value::array();
};

}  // namespace

WorkloadResult run_workload(const WorkloadSpec& spec,
                            const BenchOptions& options) {
  WorkloadResult result;
  result.workload = spec.name;
  Session session(spec, options, result);
  session.run();
  result.programs = session.take_programs();
  return result;
}

}  // namespace purec::e2e
