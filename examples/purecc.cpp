// purecc — the command-line face of the chain (the paper's whole Fig. 1
// as one tool). Reads pure C, writes gcc-ready parallel C.
//
//   purecc [options] input.c
//     -o <file>            output file (default: stdout)
//     --mode pluto|sica    transformer mode (default: pluto)
//     --tile <n>           tile size (default 32; 0 disables tiling)
//     --schedule <spec>    OpenMP schedule for emitted parallel pragmas:
//                          static | dynamic[,N] | guided[,N] (N >= 1),
//                          e.g. --schedule dynamic,1 or --schedule guided,8
//     --no-parallel        verify + lower only, no OpenMP pragmas
//     --inline-pure        §3.3 extension: inline expression-bodied pure fns
//     --infer-pure         infer purity of unannotated functions via
//                          call-graph effect analysis (keyword-free C
//                          parallelizes like its annotated twin)
//     --memoize            cache pure-call results: memoizable pure
//                          functions (by-value scalar params, scalar
//                          global snapshot) get thunks backed by one
//                          table per thread in the output C, of
//                          PUREC_MEMO_CAP slots (read at run time).
//                          With --instrument, per-thunk hit/miss/
//                          eviction/bypass counters join its exit
//                          summary; without, there are none. Two gates:
//                          at compile time a single-`return` body of
//                          fewer than 8 expression nodes gets no thunk;
//                          at run time each thunk sends a thread's calls
//                          past its table while fewer than 1 in 8 hit
//     --memoize=all        disable the compile-time gate (thunk every
//                          memoizable function, for measurement)
//     --memoize=verify     memoize with full-key verification compiled
//                          in: slots store the raw argument/global words
//                          and compare them on a hit, so the 2^-25
//                          fingerprint-aliasing bound no longer applies
//     --fp-reductions      allow +/-/* reductions on float/double
//                          accumulators (OpenMP partials reassociate the
//                          combination, so results may differ in the last
//                          bits from the serial loop; min/max and integer
//                          reductions need no flag)
//     --gcc-attributes     annotate lowered pure functions with
//                          __attribute__((pure))
//     --stage <name>       print an intermediate stage instead of the final
//                          output: stripped|preprocessed|marked|substituted|
//                          transformed
//     --report             print the per-scop report to stderr
//     --report=json[:FILE] emit the full decision trail as structured JSON
//                          (purity verdicts, scop outcomes with failure
//                          line/column, reductions + demotions, chosen
//                          schedule, memoizability, inliner/instrument
//                          decisions) to stderr or FILE; the plain
//                          --report text is a renderer over the same
//                          structure (transform/chain_report.h). A
//                          rejected input still gets the document, with
//                          "ok": false and an "errors" array in place of
//                          the diagnostic text
//     --instrument         emit self-contained observability counters into
//                          the output C: per parallel region
//                          invocations/wall-time and cache-line-padded
//                          per-worker chunk tallies (and, under
//                          --memoize, the memo counters), dumped at exit
//                          as a human summary (PUREC_STATS_FILE or stderr)
//                          or as Chrome trace-event JSON under
//                          PUREC_TRACE=FILE
//
//   purecc trace [--report report.json] trace.json
//     Analyze a trace written by an --instrument build: per-region wall
//     time, p50/p90/p99 execution time, worker imbalance, dropped events;
//     with --report, each region is joined (by region_id) to the
//     compiler's schedule decisions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tools/trace_analysis.h"
#include "transform/chain_report.h"
#include "transform/pure_chain.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-o out.c] [--mode pluto|sica] [--tile N]\n"
               "          [--schedule static|dynamic[,N]|guided[,N]] "
               "[--no-parallel]\n"
               "          [--inline-pure] [--infer-pure] "
               "[--memoize[=all|=verify]]\n"
               "          [--fp-reductions] [--gcc-attributes] [--instrument]\n"
               "          [--stage NAME] [--report[=json[:FILE]]] input.c\n"
               "       %s trace [--report report.json] trace.json\n",
               argv0, argv0);
  return 2;
}

/// Writes the --report=json document to `path` (stderr when empty);
/// false, with a diagnostic, when the file cannot be written.
bool write_json_report(const purec::json::Value& report,
                       const std::string& path) {
  const std::string serialized = report.dump(2) + "\n";
  if (path.empty()) {
    std::fputs(serialized.c_str(), stderr);
    return true;
  }
  std::ofstream rf(path);
  if (!rf) {
    std::fprintf(stderr, "purecc: cannot write %s\n", path.c_str());
    return false;
  }
  rf << serialized;
  return true;
}

int trace_main(int argc, char** argv) {
  std::string report_path;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.empty() || arg[0] == '-' || !trace_path.empty()) {
      return usage(argv[0]);
    } else {
      trace_path = arg;
    }
  }
  if (trace_path.empty()) return usage(argv[0]);

  std::string error;
  std::optional<purec::json::Value> report;
  if (!report_path.empty()) {
    report = purec::tools::load_json_file(report_path, &error);
    if (!report.has_value()) {
      std::fprintf(stderr, "purecc: %s\n", error.c_str());
      return 2;
    }
  }
  const std::optional<purec::json::Value> trace =
      purec::tools::load_json_file(trace_path, &error);
  if (!trace.has_value()) {
    std::fprintf(stderr, "purecc: %s\n", error.c_str());
    return 2;
  }
  const std::optional<purec::tools::TraceSummary> summary =
      purec::tools::analyze_trace(
          *trace, report.has_value() ? &*report : nullptr, &error);
  if (!summary.has_value()) {
    std::fprintf(stderr, "purecc: %s: %s\n", trace_path.c_str(),
                 error.c_str());
    return 2;
  }
  std::fputs(purec::tools::render_trace_summary(*summary).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "trace") == 0) {
    return trace_main(argc, argv);
  }
  std::string input_path;
  std::string output_path;
  std::string stage;
  bool report = false;
  bool report_json = false;
  std::string report_path;  // empty = stderr
  purec::ChainOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "-o") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      output_path = v;
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "sica") == 0) {
        options.mode = purec::TransformMode::PlutoSica;
      } else if (std::strcmp(v, "pluto") == 0) {
        options.mode = purec::TransformMode::Pluto;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--tile") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.tile_size = std::atoll(v);
      if (options.tile_size <= 1) options.tile = false;
    } else if (arg == "--schedule") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      std::string error;
      const std::optional<purec::ScheduleSpec> spec =
          purec::ScheduleSpec::parse(v, &error);
      if (!spec) {
        std::fprintf(stderr, "purecc: invalid --schedule '%s': %s\n", v,
                     error.c_str());
        return 2;
      }
      options.schedule = *spec;
    } else if (arg == "--no-parallel") {
      options.parallelize = false;
    } else if (arg == "--inline-pure") {
      options.inline_pure_expressions = true;
    } else if (arg == "--infer-pure") {
      options.infer_purity = true;
    } else if (arg == "--memoize") {
      options.memoize = true;
    } else if (arg == "--memoize=all") {
      options.memoize = true;
      options.memoize_all = true;
    } else if (arg == "--memoize=verify") {
      options.memoize = true;
      options.memoize_verify = true;
    } else if (arg == "--fp-reductions") {
      options.fp_reductions = true;
    } else if (arg == "--gcc-attributes") {
      options.emit_gcc_attributes = true;
    } else if (arg == "--instrument") {
      options.instrument = true;
    } else if (arg == "--stage") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      stage = v;
    } else if (arg == "--report") {
      report = true;
    } else if (arg.rfind("--report=json", 0) == 0) {
      const std::string rest = arg.substr(std::strlen("--report=json"));
      if (!rest.empty() && rest[0] != ':') return usage(argv[0]);
      report = true;
      report_json = true;
      if (!rest.empty()) report_path = rest.substr(1);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage(argv[0]);
    } else {
      if (!input_path.empty()) return usage(argv[0]);
      input_path = arg;
    }
  }
  if (input_path.empty()) return usage(argv[0]);

  std::string source;
  if (input_path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    source = std::move(ss).str();
  } else {
    std::ifstream in(input_path);
    if (!in) {
      std::fprintf(stderr, "purecc: cannot open %s\n", input_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = std::move(ss).str();
  }

  purec::ChainArtifacts artifacts = purec::run_pure_chain(source, options);
  if (!artifacts.ok) {
    // A rejected input still gets its JSON report (ok false, errors[]);
    // on stderr that document replaces the diagnostic text.
    if (!report_json || !report_path.empty()) {
      std::fputs(artifacts.diagnostics.format().c_str(), stderr);
    }
    if (report_json &&
        !write_json_report(purec::build_chain_report(artifacts, options),
                           report_path)) {
      return 2;
    }
    return 1;
  }

  const std::string* out = &artifacts.final_source;
  if (stage == "stripped") out = &artifacts.stripped;
  else if (stage == "preprocessed") out = &artifacts.preprocessed;
  else if (stage == "marked") out = &artifacts.marked;
  else if (stage == "substituted") out = &artifacts.substituted;
  else if (stage == "transformed") out = &artifacts.transformed;
  else if (!stage.empty()) return usage(argv[0]);

  if (output_path.empty()) {
    std::fputs(out->c_str(), stdout);
  } else {
    std::ofstream of(output_path);
    if (!of) {
      std::fprintf(stderr, "purecc: cannot write %s\n", output_path.c_str());
      return 2;
    }
    of << *out;
  }

  if (report) {
    // One structure, two renderers: --report renders the classic text,
    // --report=json serializes the full decision trail.
    const purec::json::Value chain_report =
        purec::build_chain_report(artifacts, options);
    if (report_json) {
      if (!write_json_report(chain_report, report_path)) return 2;
    } else {
      std::fputs(purec::render_report_text(chain_report).c_str(), stderr);
    }
  }
  return 0;
}
