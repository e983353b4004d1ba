// End-to-end differential harness over the full purecc chain.
//
// For every fixture in tests/test_sources.h and every paper listing in
// assets/c/, and for every transform configuration (pluto|sica × tiling
// on/off × --inline-pure on/off):
//
//   1. Golden: the emitted C is byte-compared against a checked-in file
//      under tests/e2e/golden/. Regenerate with PUREC_UPDATE_GOLDEN=1.
//   2. Differential: runnable fixtures are compiled with the host gcc
//      (-fopenmp; skipped when gcc is unavailable) in a serial reference
//      configuration and in every parallel configuration, and the printed
//      checksums must match exactly.
//
// Fixtures the chain must reject (Listing 2's invalid operations, Listing
// 5's write-target argument) pin the rejection in every configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "e2e/e2e_fixtures.h"
#include "tools/trace_analysis.h"
#include "transform/pure_chain.h"

#ifndef PUREC_REPO_DIR
#error "build must define PUREC_REPO_DIR (the repository root)"
#endif

namespace purec::e2e {
namespace {

struct Config {
  const char* name;
  TransformMode mode;
  bool tile;
  bool inline_pure;
};

constexpr std::array<Config, 8> kConfigs = {{
    {"pluto_tile", TransformMode::Pluto, true, false},
    {"pluto_notile", TransformMode::Pluto, false, false},
    {"pluto_tile_inline", TransformMode::Pluto, true, true},
    {"pluto_notile_inline", TransformMode::Pluto, false, true},
    {"sica_tile", TransformMode::PlutoSica, true, false},
    {"sica_notile", TransformMode::PlutoSica, false, false},
    {"sica_tile_inline", TransformMode::PlutoSica, true, true},
    {"sica_notile_inline", TransformMode::PlutoSica, false, true},
}};

ChainOptions options_for(const Config& config, const Fixture& fixture) {
  ChainOptions options;
  options.mode = config.mode;
  options.tile = config.tile;
  options.inline_pure_expressions = config.inline_pure;
  options.infer_purity = fixture.infer;
  options.memoize = fixture.memoize;
  options.fp_reductions = fixture.fp_reductions;
  if (fixture.schedule != nullptr) {
    const std::optional<ScheduleSpec> spec =
        ScheduleSpec::parse(fixture.schedule);
    EXPECT_TRUE(spec.has_value()) << fixture.schedule;
    if (spec) options.schedule = *spec;
  }
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::string chain_source_of(const Fixture& fixture) {
  if (!fixture.chain_source_is_path) return fixture.chain_source;
  const std::string path =
      std::string(PUREC_REPO_DIR) + "/" + fixture.chain_source;
  std::string text = read_file(path);
  EXPECT_FALSE(text.empty()) << "cannot read asset " << path;
  return text;
}

std::string golden_path(const Fixture& fixture, const Config& config) {
  return std::string(PUREC_REPO_DIR) + "/tests/e2e/golden/" + fixture.name +
         "__" + config.name + ".c";
}

bool update_golden() {
  const char* env = std::getenv("PUREC_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

/// Single-quotes a path for safe interpolation into a popen command line
/// (TempDir may contain spaces or shell metacharacters).
std::string shell_quote(const std::string& path) {
  return "'" + path + "'";
}

bool gcc_available() {
  FILE* p = popen("gcc --version > /dev/null 2>&1 && echo yes", "r");
  if (p == nullptr) return false;
  std::array<char, 16> buf{};
  const bool ok = fgets(buf.data(), buf.size(), p) != nullptr &&
                  std::string(buf.data()).find("yes") == 0;
  pclose(p);
  return ok;
}

/// Run-output cache keyed by the exact emitted C. Many configurations emit
/// byte-identical programs (tiling that does not apply, --inline-pure with
/// nothing to inline, the shared serial reference), and every chain run is
/// deterministic — so one gcc compile+run per distinct source suffices.
/// Cuts the harness's gcc invocations roughly in half as the corpus grows.
std::map<std::string, std::string>& run_output_cache() {
  static auto* cache = new std::map<std::string, std::string>();
  return *cache;
}

/// Every differential binary runs with this many OpenMP threads, whatever
/// the host's core count: a missed dependence must race on a 1-core
/// runner exactly as on a many-core one.
constexpr const char* kRunThreads = "4";

/// Compiles `source` with gcc -fopenmp and runs it at kRunThreads threads;
/// returns stdout+stderr. Returns an empty string (with test failures
/// recorded) when the compile or run fails. Results are memoized on the
/// source text.
std::string compile_and_run(const std::string& source,
                            const std::string& tag) {
  const auto cached = run_output_cache().find(source);
  if (cached != run_output_cache().end()) return cached->second;
  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/purec_e2e_" + tag + ".c";
  const std::string bin_path = dir + "/purec_e2e_" + tag + ".bin";
  {
    std::ofstream out(c_path);
    out << source;
  }
  const std::string compile_cmd = "gcc -O2 -fopenmp -o " +
                                  shell_quote(bin_path) + " " +
                                  shell_quote(c_path) + " -lm 2>&1";
  FILE* compile = popen(compile_cmd.c_str(), "r");
  EXPECT_NE(compile, nullptr);
  if (compile == nullptr) return {};
  std::string compile_output;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), compile) != nullptr) {
    compile_output += buf.data();
  }
  const int compile_rc = pclose(compile);
  EXPECT_EQ(compile_rc, 0) << "gcc failed:\n"
                           << compile_output << "\nsource:\n"
                           << source;
  if (compile_rc != 0) return {};

  FILE* run = popen((std::string("OMP_NUM_THREADS=") + kRunThreads + " " +
                     shell_quote(bin_path) + " 2>&1")
                        .c_str(),
                    "r");
  EXPECT_NE(run, nullptr);
  if (run == nullptr) return {};
  std::string output;
  while (fgets(buf.data(), buf.size(), run) != nullptr) {
    output += buf.data();
  }
  const int run_rc = pclose(run);
  EXPECT_EQ(run_rc, 0) << "binary failed:\n" << output;
  // Only successful runs are cacheable: a crashed binary must fail the
  // exit-status assertion again in every configuration that hits it.
  if (run_rc == 0) run_output_cache()[source] = output;
  return output;
}

/// Runs a shell command, expecting exit status 0; returns stdout+stderr.
std::string run_command(const std::string& cmd) {
  std::string output;
  FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return output;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), p) != nullptr) {
    output += buf.data();
  }
  EXPECT_EQ(pclose(p), 0) << cmd << "\n" << output;
  return output;
}

/// Non-overlapping occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

class E2EChainTest : public ::testing::TestWithParam<Fixture> {};

TEST_P(E2EChainTest, GoldenEmittedC) {
  const Fixture& fixture = GetParam();
  const std::string source = chain_source_of(fixture);
  ASSERT_FALSE(source.empty());

  for (const Config& config : kConfigs) {
    SCOPED_TRACE(config.name);
    const ChainArtifacts artifacts =
        run_pure_chain(source, options_for(config, fixture));
    if (!fixture.ok_with(config.inline_pure)) {
      EXPECT_FALSE(artifacts.ok)
          << fixture.name << " must be rejected in this configuration";
      EXPECT_TRUE(artifacts.diagnostics.has_errors());
      continue;
    }
    ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
    ASSERT_FALSE(artifacts.final_source.empty());

    const std::string path = golden_path(fixture, config);
    if (update_golden()) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << artifacts.final_source;
      continue;
    }
    const std::string golden = read_file(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << path
        << " — regenerate with PUREC_UPDATE_GOLDEN=1 ctest -R e2e";
    EXPECT_EQ(artifacts.final_source, golden)
        << "emitted C drifted from " << path
        << " — if intentional, regenerate with PUREC_UPDATE_GOLDEN=1";
  }
}

TEST_P(E2EChainTest, SerialVsParallelDifferential) {
  const Fixture& fixture = GetParam();
  if (fixture.runnable == nullptr) {
    if (!fixture.expect_ok) {
      // The rejection (pinned per config above) is this fixture's whole
      // end-to-end contract: no parallel binary may exist.
      const ChainArtifacts artifacts =
          run_pure_chain(chain_source_of(fixture));
      EXPECT_FALSE(artifacts.ok);
      return;
    }
    GTEST_SKIP() << fixture.name << " has no runnable variant";
  }
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";

  // Serial reference: no parallelization, no tiling. Fixtures the default
  // chain rejects (Listing 5) only have an inlined serial form.
  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  serial_options.inline_pure_expressions = !fixture.expect_ok;
  serial_options.infer_purity = fixture.infer;
  const ChainArtifacts serial =
      run_pure_chain(fixture.runnable, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();
  const std::string reference =
      compile_and_run(serial.final_source,
                      std::string(fixture.name) + "_ref");
  ASSERT_FALSE(reference.empty()) << "serial reference produced no output";

  for (const Config& config : kConfigs) {
    // Memo fixtures also run with --memoize=verify: the table with
    // full-key verification compiled in must print the same checksum.
    for (const bool verify : {false, true}) {
      if (verify && !fixture.memoize) continue;
      const std::string tag =
          std::string(config.name) + (verify ? "_memoize_verify" : "");
      SCOPED_TRACE(tag);
      ChainOptions options = options_for(config, fixture);
      options.memoize_verify = verify;
      const ChainArtifacts parallel = run_pure_chain(fixture.runnable, options);
      if (!fixture.ok_with(config.inline_pure)) {
        EXPECT_FALSE(parallel.ok)
            << fixture.name << " must be rejected in this configuration";
        continue;
      }
      ASSERT_TRUE(parallel.ok) << parallel.diagnostics.format();
      const std::string output = compile_and_run(
          parallel.final_source, std::string(fixture.name) + "_" + tag);
      EXPECT_EQ(output, reference)
          << "parallel binary diverged from serial reference\n"
          << parallel.final_source;
    }
  }
}

/// `#pragma omp parallel` lines in emitted C.
std::size_t parallel_regions(const std::string& source) {
  std::size_t count = 0;
  for (std::size_t at = source.find("#pragma omp parallel");
       at != std::string::npos;
       at = source.find("#pragma omp parallel", at + 1)) {
    ++count;
  }
  return count;
}

// Inlining an expression-bodied pure function hands SCoP extraction the
// callee's real accesses; it must never cost a parallel region.
TEST_P(E2EChainTest, InlinePureKeepsEveryParallelRegion) {
  const Fixture& fixture = GetParam();
  if (!fixture.expect_ok || !fixture.expect_ok_inlined) {
    GTEST_SKIP() << fixture.name << " is rejected in some configuration";
  }
  const std::string source = chain_source_of(fixture);
  for (const Config& config : kConfigs) {
    if (config.inline_pure) continue;
    SCOPED_TRACE(config.name);
    Config inlined = config;
    inlined.inline_pure = true;
    const ChainArtifacts plain =
        run_pure_chain(source, options_for(config, fixture));
    const ChainArtifacts with_inline =
        run_pure_chain(source, options_for(inlined, fixture));
    ASSERT_TRUE(plain.ok && with_inline.ok);
    EXPECT_GE(parallel_regions(with_inline.final_source),
              parallel_regions(plain.final_source));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFixtures, E2EChainTest, ::testing::ValuesIn(all_fixtures()),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return std::string(info.param.name);
    });

// --instrument end to end: the counters must not perturb the computation,
// the exit dump must name every parallel region, and PUREC_TRACE must
// produce a Chrome-loadable trace-event file instead of the human summary.
TEST(E2EInstrument, InstrumentedDifferentialAndChromeTrace) {
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";
  const std::vector<Fixture> fixtures = all_fixtures();
  const auto it = std::find_if(
      fixtures.begin(), fixtures.end(),
      [](const Fixture& f) { return std::string(f.name) == "satellite"; });
  ASSERT_NE(it, fixtures.end());

  // Serial reference, uninstrumented.
  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  const ChainArtifacts serial =
      run_pure_chain(it->runnable, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();
  const std::string reference =
      compile_and_run(serial.final_source, "instr_ref");
  ASSERT_NE(reference.find("checksum"), std::string::npos);

  // Parallel + instrumented.
  ChainOptions options;
  options.instrument = true;
  const ChainArtifacts instrumented =
      run_pure_chain(it->runnable, options);
  ASSERT_TRUE(instrumented.ok) << instrumented.diagnostics.format();
  ASSERT_FALSE(instrumented.instrumented_regions.empty());

  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/purec_e2e_instr.c";
  const std::string bin_path = dir + "/purec_e2e_instr.bin";
  const std::string trace_path = dir + "/purec_e2e_instr_trace.json";
  {
    std::ofstream out(c_path);
    out << instrumented.final_source;
  }
  // The counters must compile as clean as the program they instrument.
  run_command("gcc -O2 -fopenmp -Wall -Wextra -Werror -o " +
              shell_quote(bin_path) + " " + shell_quote(c_path) + " -lm");

  // Plain run: human counter summary on stderr + the untouched checksum.
  const std::string summary_run = run_command(shell_quote(bin_path));
  EXPECT_NE(summary_run.find(reference), std::string::npos) << summary_run;
  EXPECT_NE(summary_run.find("purec-instr["), std::string::npos)
      << summary_run;
  for (const std::string& region : instrumented.instrumented_regions) {
    EXPECT_NE(summary_run.find("purec-instr[" + region + "]"),
              std::string::npos)
        << summary_run;
  }

  // Traced run: the summary is replaced by a Chrome trace-event file.
  std::remove(trace_path.c_str());
  const std::string traced_run = run_command(
      "PUREC_TRACE=" + shell_quote(trace_path) + " " +
      shell_quote(bin_path));
  EXPECT_EQ(traced_run, reference) << traced_run;
  const std::string trace = read_file(trace_path);
  ASSERT_FALSE(trace.empty()) << "PUREC_TRACE wrote nothing";
  // Cooperative array format: a bare JSON array of events, opened with
  // '[' and closed with ']' after every dump, so a later dump to the same
  // path can splice its events in.
  EXPECT_EQ(trace.rfind("[", 0), 0u) << trace.substr(0, 120);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos)
      << "no metadata events in the trace";
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos)
      << "no duration events in the trace";
  EXPECT_NE(trace.find("\"region_id\":"), std::string::npos)
      << "duration events carry no region_id join key";
  const auto last_bracket = trace.find_last_not_of(" \n\r\t");
  ASSERT_NE(last_bracket, std::string::npos);
  EXPECT_EQ(trace[last_bracket], ']')
      << "trace is not a closed JSON array";
  // `purecc trace` reads every region's latency percentiles off the trace.
  {
    std::string error;
    const std::optional<json::Value> doc =
        tools::load_json_file(trace_path, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const std::optional<tools::TraceSummary> summary =
        tools::analyze_trace(*doc, nullptr, &error);
    ASSERT_TRUE(summary.has_value()) << error;
    const std::string rendered = tools::render_trace_summary(*summary);
    for (const std::string& region : instrumented.instrumented_regions) {
      const std::size_t at =
          rendered.find("purecc-trace: region " + region + " ");
      ASSERT_NE(at, std::string::npos) << region << " in:\n" << rendered;
      const std::string line =
          rendered.substr(at, rendered.find('\n', at) - at);
      EXPECT_NE(line.find(" p50_us="), std::string::npos) << line;
      EXPECT_NE(line.find(" p99_us="), std::string::npos) << line;
    }
  }

  // A second traced run against the SAME path must append cooperatively:
  // still one valid array, now with both runs' events.
  const std::string twice_run = run_command(
      "PUREC_TRACE=" + shell_quote(trace_path) + " " +
      shell_quote(bin_path));
  EXPECT_EQ(twice_run, reference) << twice_run;
  const std::string merged = read_file(trace_path);
  EXPECT_GT(merged.size(), trace.size());
  EXPECT_EQ(merged.rfind("[", 0), 0u);
  const auto merged_last = merged.find_last_not_of(" \n\r\t");
  ASSERT_NE(merged_last, std::string::npos);
  EXPECT_EQ(merged[merged_last], ']')
      << "second dump corrupted the cooperative array";
  // Two dumps -> two process_name metadata events.
  EXPECT_EQ(count_of(merged, "\"process_name\""), 2u);

  // PUREC_STATS_FILE is an append-mode sink: two runs dumping into one
  // file must interleave as whole summaries (every region line present
  // twice), so a batch of experiments can share one log.
  const std::string stats_path = dir + "/purec_e2e_instr_stats.log";
  std::remove(stats_path.c_str());
  for (int run = 0; run < 2; ++run) {
    const std::string stats_run = run_command(
        "PUREC_STATS_FILE=" + shell_quote(stats_path) + " " +
        shell_quote(bin_path));
    EXPECT_EQ(stats_run, reference) << stats_run;
  }
  const std::string stats_log = read_file(stats_path);
  ASSERT_FALSE(stats_log.empty()) << "PUREC_STATS_FILE wrote nothing";
  for (const std::string& region : instrumented.instrumented_regions) {
    EXPECT_EQ(count_of(stats_log, "purec-instr[" + region + "]"), 2u)
        << stats_log;
  }
  // The summary line carries counts and totals only (one `_ns=` field,
  // total_ns); per-execution latency lives in the trace.
  EXPECT_EQ(count_of(stats_log, "_ns="), count_of(stats_log, "purec-instr["))
      << stats_log;
}

// The region registry has no fixed capacity: a translation unit with 70
// parallel regions names every one of them once in the summary and once
// among the trace's chunk counters.
TEST(E2EInstrument, EveryRegionPastSixtyFourReachesTheDump) {
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";
  constexpr int kRegions = 70;
  std::string source = "float a[64];\n";
  std::string calls;
  for (int f = 0; f < kRegions; ++f) {
    const std::string n = std::to_string(f);
    source += "void fill" + n + "(void) {\n";
    source += "  for (int i = 0; i < 64; i++) a[i] = a[i] + " + n + ".0f;\n";
    source += "}\n";
    calls += "  fill" + n + "();\n";
  }
  source += "int main(void) {\n" + calls + "  return 0;\n}\n";

  ChainOptions options;
  options.instrument = true;
  options.tile = false;
  const ChainArtifacts instrumented = run_pure_chain(source, options);
  ASSERT_TRUE(instrumented.ok) << instrumented.diagnostics.format();
  ASSERT_EQ(instrumented.instrumented_regions.size(),
            static_cast<std::size_t>(kRegions));

  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/purec_e2e_instr_many.c";
  const std::string bin_path = dir + "/purec_e2e_instr_many.bin";
  const std::string trace_path = dir + "/purec_e2e_instr_many.json";
  {
    std::ofstream out(c_path);
    out << instrumented.final_source;
  }
  run_command("gcc -O2 -fopenmp -Wall -Wextra -Werror -o " +
              shell_quote(bin_path) + " " + shell_quote(c_path));
  const std::string threads = std::string("OMP_NUM_THREADS=") + kRunThreads;
  const std::string summary =
      run_command(threads + " " + shell_quote(bin_path));
  std::remove(trace_path.c_str());
  run_command(threads + " PUREC_TRACE=" + shell_quote(trace_path) + " " +
              shell_quote(bin_path));
  const std::string trace = read_file(trace_path);
  EXPECT_EQ(count_of(summary, "purec-instr["),
            static_cast<std::size_t>(kRegions))
      << summary;
  EXPECT_EQ(count_of(trace, "\"ph\":\"C\""),
            static_cast<std::size_t>(kRegions));
  for (const std::string& region : instrumented.instrumented_regions) {
    EXPECT_EQ(count_of(summary, "purec-instr[" + region + "] "), 1u)
        << region;
    EXPECT_EQ(count_of(trace, "\"" + region + " chunks\""), 1u) << region;
  }
}

// Under collapse(2) the chunk tally must go into the innermost collapsed
// loop's body: planted at the top of the outer tile loop it would break
// the perfect nest OpenMP requires and gcc would reject the file. The
// matmul fixture's tile band collapses (the satellite one above does not).
TEST(E2EInstrument, CollapsedTileBandCompilesCleanAndMatchesSerial) {
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";
  const std::vector<Fixture> fixtures = all_fixtures();
  const auto it = std::find_if(
      fixtures.begin(), fixtures.end(),
      [](const Fixture& f) { return std::string(f.name) == "matmul"; });
  ASSERT_NE(it, fixtures.end());

  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  const ChainArtifacts serial =
      run_pure_chain(it->runnable, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();
  const std::string reference =
      compile_and_run(serial.final_source, "instr_collapse_ref");
  ASSERT_NE(reference.find("checksum"), std::string::npos);

  ChainOptions options;
  options.instrument = true;
  const ChainArtifacts instrumented = run_pure_chain(it->runnable, options);
  ASSERT_TRUE(instrumented.ok) << instrumented.diagnostics.format();
  ASSERT_NE(instrumented.final_source.find("collapse(2)"), std::string::npos)
      << instrumented.final_source;

  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/purec_e2e_instr_collapse.c";
  const std::string bin_path = dir + "/purec_e2e_instr_collapse.bin";
  {
    std::ofstream out(c_path);
    out << instrumented.final_source;
  }
  run_command("gcc -O2 -fopenmp -Wall -Wextra -Werror -o " +
              shell_quote(bin_path) + " " + shell_quote(c_path) + " -lm");
  const std::string run = run_command(shell_quote(bin_path));
  EXPECT_NE(run.find(reference), std::string::npos) << run;
  for (const std::string& region : instrumented.instrumented_regions) {
    EXPECT_NE(run.find("purec-instr[" + region + "]"), std::string::npos)
        << run;
  }
}

// tier1 smoke guard: the region-SCoP, delinearization and local-pointer
// resolution fixtures must stay in the corpus as *runnable* differentials
// — if one loses its runnable variant (or gets dropped from the table),
// the checksum-identity contract above would silently stop being checked
// for it.
TEST(E2ECorpus, RegionFixturesKeepRunnableDifferentials) {
  const std::vector<Fixture> fixtures = all_fixtures();
  for (const char* name :
       {"guarded_update", "while_loop", "imperfect_nest", "strided_lower",
        "dot_reduce", "min_reduce", "guarded_reduce", "fission_split",
        "fused_siblings", "private_tmp", "disjunctive_guard", "flat_fill",
        "ell_fill", "flat_overlap", "flat_mixed", "alias_offset"}) {
    const auto it = std::find_if(
        fixtures.begin(), fixtures.end(),
        [&](const Fixture& f) { return std::string(f.name) == name; });
    ASSERT_NE(it, fixtures.end()) << name << " missing from the corpus";
    EXPECT_TRUE(it->expect_ok) << name;
    EXPECT_NE(it->runnable, nullptr)
        << name << " must keep a serial-vs-parallel differential";
  }
}

}  // namespace
}  // namespace purec::e2e
