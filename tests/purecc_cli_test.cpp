// Exit-status and usage coverage for the purecc command-line driver. The
// binary under test is passed in via the PURECC_BIN environment variable
// (set by CTest); the test skips when it is absent so the suite can run
// even if the examples are not built.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <sys/wait.h>

#include "support/json.h"

#ifndef PUREC_REPO_DIR
#error "build must define PUREC_REPO_DIR (the repository root)"
#endif

namespace {

const char* kInputProgram = R"(
float* v;

pure float twice(float x) {
  return x + x;
}

void fill(int n) {
  for (int i = 0; i < n; i++) {
    v[i] = twice((float)i);
  }
}
)";

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

std::string purecc_bin() {
  const char* env = std::getenv("PURECC_BIN");
  return env != nullptr ? env : "";
}

/// Single-quotes a path for safe interpolation into the shell command
/// (TempDir may contain spaces or shell metacharacters).
std::string shell_quote(const std::string& path) {
  return "'" + path + "'";
}

/// Runs `purecc <args>` through the shell; returns exit code and output.
RunResult run_purecc(const std::string& args) {
  RunResult result;
  const std::string cmd = shell_quote(purecc_bin()) + " " + args + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return result;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), p) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(p);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class PureccCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (purecc_bin().empty()) {
      GTEST_SKIP() << "PURECC_BIN not set (examples not built?)";
    }
    input_path_ = ::testing::TempDir() + "/purecc_cli_input.c";
    std::ofstream out(input_path_);
    out << kInputProgram;
  }

  /// Writes `text` to a scratch file and returns its path.
  static std::string write_temp(const std::string& name,
                                const std::string& text) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path);
    out << text;
    return path;
  }

  std::string input_path_;
};

/// A one-region trace in the schema an --instrument build writes.
std::string region_trace(double dur_us) {
  return "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"purec-instr\"}},\n"
         "{\"name\":\"fill:24\",\"cat\":\"region\",\"ph\":\"X\",\"pid\":1,"
         "\"tid\":1,\"ts\":0.000,\"dur\":" +
         std::to_string(dur_us) +
         ",\"args\":{\"region_id\":0}},\n"
         "{\"name\":\"fill:24 chunks\",\"ph\":\"C\",\"pid\":1,\"ts\":1.0,"
         "\"args\":{\"w0\":8,\"w1\":8}}\n]\n";
}

TEST_F(PureccCliTest, NoArgumentsPrintsUsage) {
  const RunResult r = run_purecc("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, UnknownFlagPrintsUsage) {
  const RunResult r = run_purecc("--bogus " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(PureccCliTest, FlagMissingValuePrintsUsage) {
  for (const char* flag : {"-o", "--mode", "--tile", "--schedule",
                           "--stage"}) {
    const RunResult r = run_purecc(flag);
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << flag;
  }
}

TEST_F(PureccCliTest, BadModePrintsUsage) {
  const RunResult r = run_purecc("--mode polly " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(PureccCliTest, MissingInputFileFailsCleanly) {
  const RunResult r = run_purecc("/nonexistent/input.c");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, SecondPositionalArgumentPrintsUsage) {
  const RunResult r =
      run_purecc(shell_quote(input_path_) + " " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(PureccCliTest, VerificationFailureExitsOne) {
  const std::string bad_path = ::testing::TempDir() + "/purecc_cli_bad.c";
  {
    std::ofstream out(bad_path);
    out << "int g;\npure int f(int a) { g = a; return a; }\n";
  }
  const RunResult r = run_purecc(shell_quote(bad_path));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_FALSE(r.output.empty());
}

TEST_F(PureccCliTest, DefaultRunEmitsParallelC) {
  const RunResult r = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#pragma omp parallel for"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("pure "), std::string::npos)
      << "output must be lowered to plain C:\n"
      << r.output;
}

TEST_F(PureccCliTest, EveryStageNameIsAccepted) {
  for (const char* stage : {"stripped", "preprocessed", "marked",
                            "substituted", "transformed"}) {
    const RunResult r =
        run_purecc(std::string("--stage ") + stage + " " +
                   shell_quote(input_path_));
    EXPECT_EQ(r.exit_code, 0) << stage << ": " << r.output;
    EXPECT_FALSE(r.output.empty()) << stage;
  }
}

TEST_F(PureccCliTest, UnknownStageNamePrintsUsage) {
  const RunResult r =
      run_purecc("--stage lowered " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(PureccCliTest, OutputFileRoundTrip) {
  const std::string out_path = ::testing::TempDir() + "/purecc_cli_out.c";
  std::remove(out_path.c_str());

  const RunResult direct = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(direct.exit_code, 0);

  const RunResult filed =
      run_purecc("-o " + shell_quote(out_path) + " " +
                 shell_quote(input_path_));
  ASSERT_EQ(filed.exit_code, 0) << filed.output;
  EXPECT_TRUE(filed.output.empty()) << "with -o, stdout must stay clean";

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good()) << "-o did not create " << out_path;
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, direct.output)
      << "-o file must hold exactly what stdout prints";
}

TEST_F(PureccCliTest, UnwritableOutputFailsCleanly) {
  const RunResult r =
      run_purecc("-o /nonexistent/dir/out.c " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot write"), std::string::npos);
}

TEST_F(PureccCliTest, ReportGoesToStderr) {
  const RunResult r = run_purecc("--report " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("purecc:"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, ReportJsonGoesToStderrOrFile) {
  // To stderr: a JSON document instead of the classic text lines.
  const RunResult r =
      run_purecc("--report=json -o /dev/null " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"report_version\": 5"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"purity\""), std::string::npos) << r.output;

  // To a file: stderr stays clean, the file holds the same document.
  const std::string json_path =
      ::testing::TempDir() + "/purecc_cli_report.json";
  std::remove(json_path.c_str());
  const RunResult filed =
      run_purecc("--report=json:" + shell_quote(json_path) +
                 " -o /dev/null " + shell_quote(input_path_));
  ASSERT_EQ(filed.exit_code, 0) << filed.output;
  EXPECT_TRUE(filed.output.empty()) << filed.output;
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "--report=json:FILE did not create " << json_path;
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, r.output)
      << "file report must hold exactly what stderr prints";
}

/// The --report=json document of an input the chain rejects, checked for
/// what every rejection report carries; `pass` names the stage of the
/// first error. Returns the parsed document.
purec::json::Value rejected_report(const std::string& input,
                                   const char* pass) {
  const std::string path = std::string(PUREC_REPO_DIR) + "/" + input;
  // On stderr the document replaces the diagnostic text: all of stderr
  // parses as one JSON value.
  const RunResult r =
      run_purecc("--report=json -o /dev/null " + shell_quote(path));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::string error;
  const std::optional<purec::json::Value> doc =
      purec::json::parse(r.output, &error);
  EXPECT_TRUE(doc.has_value()) << error << "\n" << r.output;
  if (!doc.has_value()) return purec::json::Value();
  EXPECT_FALSE(doc->find("ok")->as_bool());
  const purec::json::Value* errors = doc->find("errors");
  if (errors == nullptr || errors->size() == 0) {
    ADD_FAILURE() << "no errors[] in\n" << r.output;
    return *doc;
  }
  const purec::json::Value& first = (*errors->as_array())[0];
  EXPECT_GT(first.find("line")->as_int(), 0) << r.output;
  EXPECT_GT(first.find("column")->as_int(), 0) << r.output;
  EXPECT_FALSE(first.find("message")->as_string().empty()) << r.output;
  EXPECT_EQ(first.find("pass")->as_string(), pass) << r.output;

  // To a file: the same document, and stderr keeps the diagnostic text.
  const std::string json_path =
      ::testing::TempDir() + "/purecc_cli_rejected.json";
  std::remove(json_path.c_str());
  const RunResult filed = run_purecc("--report=json:" +
                                     shell_quote(json_path) +
                                     " -o /dev/null " + shell_quote(path));
  EXPECT_EQ(filed.exit_code, 1) << filed.output;
  EXPECT_NE(filed.output.find(first.find("message")->as_string()),
            std::string::npos)
      << filed.output;
  std::ifstream in(json_path);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, r.output);

  // Plain --report and no report at all: the diagnostics only.
  const RunResult bare = run_purecc("-o /dev/null " + shell_quote(path));
  EXPECT_EQ(bare.exit_code, 1);
  const RunResult text =
      run_purecc("--report -o /dev/null " + shell_quote(path));
  EXPECT_EQ(text.exit_code, 1);
  EXPECT_EQ(text.output, bare.output);
  EXPECT_EQ(bare.output.find("report_version"), std::string::npos)
      << bare.output;
  return *doc;
}

TEST_F(PureccCliTest, PurityRejectionStillWritesTheJsonReport) {
  // Listing 2's invalid operations: the purity verdicts the chain reached
  // ride along with the checker's errors.
  const purec::json::Value doc =
      rejected_report("assets/c/listing2_rules.c", "purity");
  const purec::json::Value* purity = doc.find("purity");
  ASSERT_NE(purity, nullptr);
  EXPECT_GT(purity->size(), 0u);
}

TEST_F(PureccCliTest, ParseErrorStillWritesTheJsonReport) {
  // The hand-blocked MKL stand-in is outside the parsed C subset.
  const purec::json::Value doc =
      rejected_report("bench/kernels/matmul_mkl.c", "parser");
  const purec::json::Value* purity = doc.find("purity");
  ASSERT_NE(purity, nullptr);
  EXPECT_EQ(purity->size(), 0u);
}

TEST_F(PureccCliTest, MalformedReportJsonSuffixPrintsUsage) {
  const RunResult r =
      run_purecc("--report=jsonx " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(PureccCliTest, InstrumentInjectsCountersOnlyWhenAsked) {
  const RunResult plain = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(plain.exit_code, 0);
  EXPECT_EQ(plain.output.find("purec_instr"), std::string::npos)
      << "instrumentation must be opt-in";

  const RunResult instr =
      run_purecc("--instrument " + shell_quote(input_path_));
  ASSERT_EQ(instr.exit_code, 0) << instr.output;
  EXPECT_NE(instr.output.find("purec_instr_region_t"), std::string::npos)
      << instr.output;
  EXPECT_NE(instr.output.find("PUREC_TRACE"), std::string::npos)
      << instr.output;
  EXPECT_NE(instr.output.find("purec_stats_out"), std::string::npos)
      << instr.output;
}

TEST_F(PureccCliTest, InstrumentLeavesSerialNestsBare) {
  // Listing 7's shape: the reduction inside pure `dot` stays serial and
  // runs once per call, so only the parallel caller nest is timed.
  const std::string path = write_temp("purecc_cli_serial_nest.c", R"(
float **A, **Bt, **C;

pure float dot(pure float* a, pure float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += a[i] * b[i];
  return res;
}

int main() {
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 64);
  return 0;
}
)");
  const std::string json_path =
      ::testing::TempDir() + "/purecc_cli_serial_nest.json";
  const RunResult r = run_purecc("--instrument --report=json:" +
                                 shell_quote(json_path) + " " +
                                 shell_quote(path));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("purec_instr_r0 = {.name = \"main:"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("\"dot:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("purec_instr_r1"), std::string::npos) << r.output;

  std::ifstream in(json_path);
  const std::string report((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const std::optional<purec::json::Value> doc = purec::json::parse(report);
  ASSERT_TRUE(doc.has_value()) << report;
  const purec::json::Value* scops = doc->find("scops");
  ASSERT_TRUE(scops != nullptr && scops->as_array() != nullptr) << report;
  int serial = 0;
  for (const purec::json::Value& scop : *scops->as_array()) {
    const bool parallel = scop.find("parallelized")->as_bool();
    // Only a timed nest carries the id that joins it to trace events.
    EXPECT_EQ(scop.find("region_id")->is_null(), !parallel) << report;
    if (!parallel && scop.find("transformed")->as_bool()) ++serial;
  }
  EXPECT_EQ(serial, 1) << report;
}

TEST_F(PureccCliTest, ScheduleSpecRoundTripsIntoPragma) {
  const RunResult r =
      run_purecc("--schedule guided,8 " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#pragma omp parallel for schedule(guided,8)"),
            std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, FullClauseSpellingStillAccepted) {
  // The seed's verbatim-clause spelling keeps working, normalized.
  const RunResult r = run_purecc("--schedule 'schedule(dynamic,1)' " +
                                 shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#pragma omp parallel for schedule(dynamic,1)"),
            std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, MalformedScheduleRejectedWithDiagnostic) {
  // The seed pasted any string verbatim into the pragma — "--schedule
  // bogus" produced uncompilable C with exit 0. Now it must fail fast
  // and say why.
  for (const char* bad : {"bogus", "dynamic,0", "guided,-1", "dynamic,x"}) {
    const RunResult r = run_purecc(std::string("--schedule '") + bad +
                                   "' " + shell_quote(input_path_));
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.output.find("invalid --schedule"), std::string::npos)
        << bad << ": " << r.output;
  }
}

TEST_F(PureccCliTest, InferPureParallelizesKeywordFreeInput) {
  const std::string plain_path =
      ::testing::TempDir() + "/purecc_cli_plain.c";
  {
    std::ofstream out(plain_path);
    out << "float* v;\n"
           "float twice(float x) {\n"
           "  return x + x;\n"
           "}\n"
           "void fill(int n) {\n"
           "  for (int i = 0; i < n; i++) {\n"
           "    v[i] = twice((float)i);\n"
           "  }\n"
           "}\n";
  }
  // Without the flag the call is opaque: no OpenMP in the output.
  const RunResult plain = run_purecc(shell_quote(plain_path));
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("#pragma omp"), std::string::npos);

  // With --infer-pure the loop parallelizes and the report names the
  // inference provenance.
  const RunResult inferred =
      run_purecc("--infer-pure --report " + shell_quote(plain_path));
  ASSERT_EQ(inferred.exit_code, 0) << inferred.output;
  EXPECT_NE(inferred.output.find("#pragma omp parallel for"),
            std::string::npos)
      << inferred.output;
  EXPECT_NE(inferred.output.find("inferred pure: twice"), std::string::npos)
      << inferred.output;
  EXPECT_NE(inferred.output.find("inferred=1"), std::string::npos)
      << inferred.output;
}

TEST_F(PureccCliTest, MemoizeCostGatesTrivialLeavesByDefault) {
  // twice(float) is a single-expression leaf: plain --memoize cost-gates
  // it (recompute beats the table trip) and reports why.
  const RunResult r =
      run_purecc("--memoize --report " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("PUREC_MEMO_RUNTIME"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("cost gate"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("memoized 0 call site(s)"), std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, MemoizeAllRewritesCallSitesAndReports) {
  // --memoize=all overrides the gate: the output gains the thunk, its
  // table, and the rewritten call site; the report carries the
  // provenance.
  const RunResult r =
      run_purecc("--memoize=all --report " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("PUREC_MEMO_RUNTIME"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("purec_memo_twice("), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("memoizable: twice"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("memoized 1 call site(s)"), std::string::npos)
      << r.output;

  // Without verify purecc emits no record size: the first define is the
  // runtime's own default.
  const std::string vwords = "#define PUREC_MEMO_VWORDS ";
  EXPECT_EQ(r.output.substr(r.output.find(vwords), vwords.size() + 3),
            vwords + "12u");

  // Without the flag nothing memo-related may leak into the output.
  const RunResult plain = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("purec_memo"), std::string::npos);
}

TEST_F(PureccCliTest, MemoizeVerifyCompilesTheFullKeyDefaultIn) {
  // --memoize=verify compiles verification into the emitted prelude and
  // is echoed in the report options.
  const RunResult r = run_purecc(
      "--memoize=all --memoize=verify --report=json " +
      shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#define PUREC_MEMO_VERIFY 1"),
            std::string::npos)
      << r.output;
  // A verify record holds the TU's widest key tuple: `twice` keys on its
  // one argument.
  EXPECT_NE(r.output.find("#define PUREC_MEMO_VWORDS 1u\n"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"memoize_verify\": true"), std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, MemoizeProfileIsNotAnOption) {
  // The compile-time gate reads body shape only; reuse is measured by the
  // thunk's run-time gate. A stats dump is no input to the compiler, even
  // a readable one. (The flag is spelled in two pieces so a search for
  // what is left of the removed feature finds only code.)
  const std::string flag = std::string("--memoize-") + "profile";
  const std::string prof_path = ::testing::TempDir() + "/purecc_cli.prof";
  {
    std::ofstream out(prof_path);
    out << "purec-memo[twice] hits=900 misses=10 evictions=0\n";
  }
  const RunResult r = run_purecc(flag + "=" + shell_quote(prof_path) +
                                 " " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(flag), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, FpReductionsGatesTheFloatAccumulation) {
  const std::string red_path = ::testing::TempDir() + "/purecc_cli_red.c";
  {
    std::ofstream out(red_path);
    out << "void dot(float* a, float* b, float* out, int n) {\n"
           "  float sum = 0.0f;\n"
           "  for (int i = 0; i < n; i++) {\n"
           "    sum = sum + a[i] * b[i];\n"
           "  }\n"
           "  out[0] = sum;\n"
           "}\n";
  }
  // Default: the FP sum is demoted — serial output, and the report
  // carries the note pointing at the flag.
  const RunResult strict =
      run_purecc("--report " + shell_quote(red_path));
  ASSERT_EQ(strict.exit_code, 0) << strict.output;
  EXPECT_EQ(strict.output.find("#pragma omp"), std::string::npos);
  EXPECT_NE(strict.output.find("--fp-reductions"), std::string::npos)
      << strict.output;

  // Opt-in: the pragma appears and the report names the reduction.
  const RunResult relaxed =
      run_purecc("--fp-reductions --report " + shell_quote(red_path));
  ASSERT_EQ(relaxed.exit_code, 0) << relaxed.output;
  EXPECT_NE(relaxed.output.find(
                "#pragma omp parallel for reduction(+:sum)"),
            std::string::npos)
      << relaxed.output;
  EXPECT_NE(relaxed.output.find("reduction=+:sum"), std::string::npos)
      << relaxed.output;
}

TEST_F(PureccCliTest, TraceSummarizesAnInstrumentedRun) {
  const RunResult r = run_purecc(
      "trace " + shell_quote(write_temp("purecc_cli_trace.json",
                                        region_trace(2000.0))));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("purecc-trace: region fill:24 id=0 executions=1 "
                          "wall_ms=2.000 imbalance=1.000 chunks=16 "
                          "p50_us=2000.000 p90_us=2000.000 "
                          "p99_us=2000.000\n"),
            std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, TraceTruncatedMidArrayFailsWithTheByteOffset) {
  // A run killed mid-dump leaves an unterminated array.
  const std::string full = region_trace(2000.0);
  const std::string path = write_temp(
      "purecc_cli_truncated.json", full.substr(0, full.find("\"dur\"")));
  const RunResult r = run_purecc("trace " + shell_quote(path));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("purecc: " + path + ": "), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("at byte"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, TraceThatIsNotAnArrayFails) {
  const RunResult r = run_purecc(
      "trace " + shell_quote(write_temp("purecc_cli_object.json",
                                        "{\"traceEvents\": []}\n")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("not a JSON array"), std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, TraceHasNoDiffMode) {
  // One trace, one reader: comparing runs across commits is the e2e
  // benchmark's job, so `trace` takes exactly one trace and no mode flag.
  const std::string base =
      write_temp("purecc_cli_base.json", region_trace(1000.0));
  const std::string slow =
      write_temp("purecc_cli_slow.json", region_trace(10000.0));
  for (const std::string& args :
       {"trace --diff " + shell_quote(base) + " " + shell_quote(slow),
        "trace " + shell_quote(base) + " " + shell_quote(slow)}) {
    const RunResult r = run_purecc(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("--diff"), std::string::npos) << r.output;
  }
}

}  // namespace
