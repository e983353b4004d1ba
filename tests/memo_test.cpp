// Tests of the memoization subsystem's compiler half: the memoizability
// analysis (src/memo/memoizable.*), the thunk codegen
// (src/memo/memo_codegen.*), and the chain wiring behind
// ChainOptions::memoize. The emitted table itself (src/runtime/c/
// purec_memo.h) is tested as C by tests/c/memo_runtime_test.c.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "memo/memo_codegen.h"
#include "memo/memoizable.h"
#include "parser/parser.h"
#include "sema/symbols.h"
#include "support/diagnostics.h"
#include "test_sources.h"
#include "transform/pure_chain.h"

namespace purec {
namespace {

// ---------------------------------------------------------------------------
// Memoizability analysis
// ---------------------------------------------------------------------------

struct ClassifyOutcome {
  DiagnosticEngine diags;
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<SymbolTable> symbols;
  MemoizableResult result;
};

/// Parses `src`, derives the pure set via the checker (plus `extra_pure`
/// names assumed without verification), and classifies.
ClassifyOutcome classify(const std::string& src,
                         std::set<std::string> extra_pure = {},
                         bool cost_gate = false) {
  ClassifyOutcome out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  out.tu = std::make_unique<TranslationUnit>(parse(buf, out.diags));
  EXPECT_FALSE(out.diags.has_errors())
      << "fixture must parse: " << out.diags.format(&buf);
  out.symbols =
      std::make_unique<SymbolTable>(SymbolTable::build(*out.tu, out.diags));
  PurityOptions options;
  options.assume_pure = std::move(extra_pure);
  PurityChecker checker(*out.tu, *out.symbols, out.diags, options);
  const PurityResult purity = checker.check();
  out.result = classify_memoizable(*out.tu, *out.symbols,
                                   purity.pure_functions, options,
                                   cost_gate);
  return out;
}

const MemoFunctionInfo& info_of(const ClassifyOutcome& out,
                                const std::string& name) {
  const auto it = out.result.functions.find(name);
  EXPECT_NE(it, out.result.functions.end()) << "no verdict for " << name;
  return it->second;
}

TEST(Memoizable, ScalarParamsYesPointerParamsNo) {
  const ClassifyOutcome out = classify(testsrc::kMatmul);
  EXPECT_TRUE(info_of(out, "mult").memoizable);
  ASSERT_EQ(info_of(out, "mult").param_types.size(), 2u);
  const MemoFunctionInfo& dot = info_of(out, "dot");
  EXPECT_FALSE(dot.memoizable);
  EXPECT_NE(dot.reason.find("read extent not statically known"),
            std::string::npos)
      << dot.reason;
}

TEST(Memoizable, VoidReturnRejected) {
  const ClassifyOutcome out = classify(
      "pure void nop(int a) { int b; b = a; }\n");
  const MemoFunctionInfo& info = info_of(out, "nop");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("returns void"), std::string::npos);
}

TEST(Memoizable, GlobalScalarJoinsSnapshot) {
  const ClassifyOutcome out = classify(
      "float gain;\n"
      "pure float shade(int v) { return (float)v * gain; }\n");
  const MemoFunctionInfo& info = info_of(out, "shade");
  ASSERT_TRUE(info.memoizable) << info.reason;
  ASSERT_EQ(info.global_snapshot.size(), 1u);
  EXPECT_EQ(info.global_snapshot[0].first, "gain");
}

TEST(Memoizable, GlobalArrayRejected) {
  const ClassifyOutcome out = classify(
      "float lut[64];\n"
      "pure float shade(int v) { return lut[v]; }\n");
  const MemoFunctionInfo& info = info_of(out, "shade");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("snapshot would be unbounded"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, TransitiveGlobalReadsFlowThroughCallees) {
  const ClassifyOutcome out = classify(
      "int bias;\n"
      "pure int inner(int v) { return v + bias; }\n"
      "pure int outer(int v) { return inner(v) * 2; }\n");
  const MemoFunctionInfo& info = info_of(out, "outer");
  ASSERT_TRUE(info.memoizable) << info.reason;
  ASSERT_EQ(info.global_snapshot.size(), 1u);
  EXPECT_EQ(info.global_snapshot[0].first, "bias");
}

TEST(Memoizable, AllocationRejected) {
  const ClassifyOutcome out = classify(
      "pure int probe(int n) {\n"
      "  int* p = (int*)malloc(n * sizeof(int));\n"
      "  p[0] = n;\n"
      "  int r = p[0];\n"
      "  free(p);\n"
      "  return r;\n"
      "}\n");
  const MemoFunctionInfo& info = info_of(out, "probe");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("allocates"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, ExternPureProtoRejectedViaCallee) {
  const ClassifyOutcome out = classify(
      "pure int mystery(int v);\n"
      "pure int wrap(int v) { return mystery(v) + 1; }\n");
  const MemoFunctionInfo& info = info_of(out, "wrap");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("definition unavailable"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, FpEnvironmentSensitiveCalleeRejected) {
  // `rint` observes the dynamic rounding mode; assume it pure to get past
  // the checker and pin that memoization still refuses.
  const ClassifyOutcome out = classify(
      "pure double snap(double v) { return rint(v); }\n", {"rint"});
  const MemoFunctionInfo& info = info_of(out, "snap");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("floating-point-environment"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, LocaleSensitiveSnprintfRejected) {
  // Pure enough for parallelization (bounded local write), but the
  // formatted bytes depend on the dynamic locale — caching them would
  // serve stale results across setlocale.
  const ClassifyOutcome out = classify(
      "int fmt(int v) {\n"
      "  char buf[16];\n"
      "  snprintf(buf, 16, \"%d\", v);\n"
      "  return buf[0];\n"
      "}\n",
      {"fmt"});
  const MemoFunctionInfo& info = info_of(out, "fmt");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("locale-sensitive"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, LocaleSensitiveStrtodRejected) {
  // The mirror hazard of snprintf: C11 lets other locales accept
  // additional subject-sequence forms, so identical argument bytes can
  // parse differently across setlocale calls. Pure (the &local endptr
  // write is thread-invisible) but not cacheable.
  const ClassifyOutcome out = classify(
      "double parse(int digit) {\n"
      "  char buf[2];\n"
      "  char* end;\n"
      "  buf[0] = 48 + digit;\n"
      "  buf[1] = 0;\n"
      "  return strtod(buf, &end);\n"
      "}\n",
      {"parse"});
  const MemoFunctionInfo& info = info_of(out, "parse");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("locale-sensitive parsing"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, StandardMathCalleesAreFine) {
  const ClassifyOutcome out = classify(
      "pure double wave(double x) { return sin(x) * cos(x); }\n");
  EXPECT_TRUE(info_of(out, "wave").memoizable)
      << info_of(out, "wave").reason;
}

TEST(Memoizable, SnapshotBoundRejectsWideGlobalSets) {
  std::string src;
  std::string body = "pure int sum(int v) { return v";
  for (int i = 0; i < 9; ++i) {
    src += "int g" + std::to_string(i) + ";\n";
    body += " + g" + std::to_string(i);
  }
  src += body + "; }\n";
  const ClassifyOutcome out = classify(src);
  const MemoFunctionInfo& info = info_of(out, "sum");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("snapshot bound"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, SummaryNamesBothSides) {
  const ClassifyOutcome out = classify(testsrc::kMatmul);
  const std::string summary = out.result.summary();
  EXPECT_NE(summary.find("memoizable: mult"), std::string::npos) << summary;
  EXPECT_NE(summary.find("rejected: dot"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// Compile-time cost gate
// ---------------------------------------------------------------------------

TEST(Memoizable, CostGateReadsTheReportedNodeCount) {
  // One node count both decides and is reported: the 3-node `mult` leaf
  // (a * b) is rejected with that count, and cost_nodes says 3.
  const ClassifyOutcome out =
      classify(testsrc::kMatmul, {}, /*cost_gate=*/true);
  const MemoFunctionInfo& mult = info_of(out, "mult");
  EXPECT_FALSE(mult.memoizable);
  EXPECT_NE(mult.reason.find("3 node(s)"), std::string::npos) << mult.reason;
  EXPECT_EQ(mult.cost_nodes, 3u);
}

TEST(Memoizable, CostGatePricesOnlySingleReturnBodies) {
  // A multi-statement body is not shape-gated, however few its nodes.
  const ClassifyOutcome out = classify(
      "pure int twice(int a) {\n"
      "  int b = a;\n"
      "  return b + b;\n"
      "}\n",
      {}, /*cost_gate=*/true);
  const MemoFunctionInfo& twice = info_of(out, "twice");
  EXPECT_TRUE(twice.memoizable) << twice.reason;
  EXPECT_LT(twice.cost_nodes, kMemoTrivialExprNodes);
}

// ---------------------------------------------------------------------------
// Stats-dump parsing
// ---------------------------------------------------------------------------

TEST(MemoProfile, ParseSumsFleetDumps) {
  // One PUREC_MEMO_STATS dump per process in a fleet: entries for the
  // same thunk sum; anything that is not a stats line is ignored.
  const MemoProfile profile = parse_memo_profile(
      "purec-memo[heavy] hits=10 misses=2 evictions=0\n"
      "some unrelated program output\n"
      "purec-memo[heavy] hits=5 misses=1 evictions=3\n"
      "purec-memo[cold] hits=0 misses=7 evictions=0\n"
      "purec-memo[broken] hits=oops\n");
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.at("heavy").hits, 15u);
  EXPECT_EQ(profile.at("heavy").misses, 3u);
  EXPECT_EQ(profile.at("heavy").evictions, 3u);
  EXPECT_EQ(profile.at("cold").misses, 7u);
}

TEST(MemoProfile, ParseReadsTheOptionalBypassedField) {
  // Dumps from before the run-time gate have three counters; the fourth,
  // when present, is read, and both shapes sum into one entry.
  const MemoProfile profile = parse_memo_profile(
      "purec-memo[shade] hits=4 misses=6 evictions=1\n"
      "purec-memo[shade] hits=1 misses=2 evictions=0 bypassed=900\n"
      "purec-memo[other] hits=0 misses=1024 evictions=3 bypassed=7\n");
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.at("shade").hits, 5u);
  EXPECT_EQ(profile.at("shade").misses, 8u);
  EXPECT_EQ(profile.at("shade").evictions, 1u);
  EXPECT_EQ(profile.at("shade").bypassed, 900u);
  EXPECT_EQ(profile.at("other").misses, 1024u);
  EXPECT_EQ(profile.at("other").bypassed, 7u);
}

// ---------------------------------------------------------------------------
// Thunk codegen
// ---------------------------------------------------------------------------

TEST(MemoCodegen, ThunkPrototypeShape) {
  MemoFunctionInfo info;
  info.name = "mult";
  info.return_type = Type::make_builtin(BuiltinKind::Float);
  info.param_types = {Type::make_builtin(BuiltinKind::Float),
                      Type::make_builtin(BuiltinKind::Float)};
  EXPECT_EQ(memo_thunk_prototype(info),
            "static float purec_memo_mult(float purec_a0, "
            "float purec_a1);\n");
  const std::string def = memo_thunk_definition(info, false);
  // Both floats travel as their bits in one key word, mixed once.
  EXPECT_NE(def.find("    purec_kw[0] = PUREC_MEMO_PAIR("
                     "PUREC_MEMO_PACK_F32(purec_a0), "
                     "PUREC_MEMO_PACK_F32(purec_a1));\n"
                     "    purec_key = purec_memo_mix(purec_key ^ "
                     "purec_kw[0]);\n"),
            std::string::npos)
      << def;
  EXPECT_NE(def.find("purec_memo_lookup(purec_key, purec_kw, 1, "),
            std::string::npos)
      << def;
  // One call site, shared by the gate's bypass path and the miss path.
  const std::string call = "mult(purec_a0, purec_a1)";
  EXPECT_NE(def.find("purec_result = " + call + ";"), std::string::npos)
      << def;
  EXPECT_EQ(def.find(call, def.find(call) + 1), std::string::npos) << def;
}

TEST(MemoCodegen, CountersOnlyWithStats) {
  MemoFunctionInfo info;
  info.name = "f";
  info.return_type = Type::make_builtin(BuiltinKind::Int);
  info.param_types = {Type::make_builtin(BuiltinKind::Int)};
  const std::string plain = memo_thunk_definition(info, false);
  EXPECT_EQ(plain.find("purec_memo_stats"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("PUREC_MEMO_STAT_INC"), std::string::npos) << plain;
  EXPECT_NE(plain.find("  purec_memo_store("), std::string::npos) << plain;
  const std::string counted = memo_thunk_definition(info, true);
  EXPECT_NE(counted.find("purec_memo_stats_register(&purec_memo_stats_f);"),
            std::string::npos)
      << counted;
  for (const char* counter : {"bypassed", "hits", "misses", "evictions"}) {
    EXPECT_NE(counted.find("PUREC_MEMO_STAT_INC(purec_memo_stats_f, " +
                           std::string(counter) + ");"),
              std::string::npos)
        << counter;
  }
}

TEST(MemoCodegen, FunctionIdsDiffer) {
  EXPECT_NE(memo_function_id("mult"), memo_function_id("dot"));
  EXPECT_EQ(memo_function_id("mult"), memo_function_id("mult"));
}

TEST(MemoCodegen, IntegerAndDoubleKeyLines) {
  MemoFunctionInfo info;
  info.name = "f";
  info.return_type = Type::make_builtin(BuiltinKind::Double);
  info.param_types = {Type::make_builtin(BuiltinKind::Int)};
  info.global_snapshot.emplace_back(
      "g", Type::make_builtin(BuiltinKind::Double));
  const std::string def = memo_thunk_definition(info, false);
  // The double takes a whole word; the int waits for a partner and,
  // finding none, packs alone.
  EXPECT_NE(def.find("    purec_kw[0] = PUREC_MEMO_PACK_F64(g);\n"),
            std::string::npos)
      << def;
  EXPECT_NE(def.find("    purec_kw[1] = PUREC_MEMO_PAIR(purec_a0, 0);\n"),
            std::string::npos)
      << def;
  EXPECT_NE(def.find("purec_memo_word purec_kw[2];"), std::string::npos)
      << def;
  EXPECT_NE(def.find("PUREC_MEMO_UNPACK_F64"), std::string::npos) << def;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

MemoFunctionInfo thunk_info(std::vector<BuiltinKind> params,
                            std::vector<BuiltinKind> globals = {}) {
  MemoFunctionInfo info;
  info.name = "f";
  info.return_type = Type::make_builtin(BuiltinKind::Float);
  for (const BuiltinKind kind : params) {
    info.param_types.push_back(Type::make_builtin(kind));
  }
  for (std::size_t i = 0; i < globals.size(); ++i) {
    info.global_snapshot.emplace_back('g' + std::to_string(i),
                                      Type::make_builtin(globals[i]));
  }
  return info;
}

// One mix per packed key word, and one of the id alone for a thunk
// without key words.
TEST(MemoCodegen, OneMixPerPackedWord) {
  struct Case {
    const char* what;
    MemoFunctionInfo info;
    std::size_t words;
    std::size_t mixes;
  };
  const Case cases[] = {
      {"tabulate's (int, float gain)",
       thunk_info({BuiltinKind::Int}, {BuiltinKind::Float}), 1, 1},
      {"(int, double)",
       thunk_info({BuiltinKind::Int, BuiltinKind::Double}), 2, 2},
      {"three ints",
       thunk_info({BuiltinKind::Int, BuiltinKind::Int, BuiltinKind::Int}),
       2, 2},
      {"no parameters", thunk_info({}), 0, 1},
  };
  for (const Case& c : cases) {
    const std::string def = memo_thunk_definition(c.info, false);
    EXPECT_EQ(memo_key_words(c.info), c.words) << c.what;
    EXPECT_EQ(count_of(def, "purec_memo_mix("), c.mixes) << c.what << def;
  }
  // tabulate: the int in the low half, the float's bits in the high one.
  EXPECT_NE(memo_thunk_definition(cases[0].info, false)
                .find("PUREC_MEMO_PAIR(purec_a0, PUREC_MEMO_PACK_F32(g0))"),
            std::string::npos);
  // Without key words the id alone is mixed, and the lookup gets a tuple
  // of no words.
  const std::string none = memo_thunk_definition(cases[3].info, false);
  EXPECT_NE(none.find("    purec_key = purec_memo_mix(purec_key);\n"),
            std::string::npos)
      << none;
  EXPECT_NE(none.find("purec_memo_lookup(purec_key, purec_kw, 0, "),
            std::string::npos)
      << none;
}

// ---------------------------------------------------------------------------
// Chain wiring
// ---------------------------------------------------------------------------

TEST(MemoChain, CostGateSkipsTrivialLeavesByDefault) {
  // `mult` is a 3-node single-expression leaf: the default --memoize
  // cost-gates it (the table trip costs more than the recompute: memoized,
  // the matmul leaf measured 0.1x), so the output stays memo-free.
  ChainOptions options;
  options.memoize = true;
  const ChainArtifacts artifacts =
      run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  EXPECT_TRUE(artifacts.memoization.memoizable.empty());
  EXPECT_EQ(artifacts.memoized_calls, 0u);
  const auto mult = artifacts.memoization.functions.find("mult");
  ASSERT_NE(mult, artifacts.memoization.functions.end());
  EXPECT_NE(mult->second.reason.find("cost gate"), std::string::npos)
      << mult->second.reason;
  EXPECT_EQ(artifacts.final_source.find("purec_memo"), std::string::npos);
}

TEST(MemoChain, MemoizeAllRewritesCallSitesAndEmitsRuntime) {
  ChainOptions options;
  options.memoize = true;
  options.memoize_all = true;
  const ChainArtifacts artifacts =
      run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  EXPECT_EQ(artifacts.memoization.memoizable,
            (std::set<std::string>{"mult"}));
  EXPECT_GE(artifacts.memoized_calls, 1u);
  EXPECT_NE(artifacts.final_source.find("PUREC_MEMO_RUNTIME"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("purec_memo_mult("),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("#include <stdlib.h>"),
            std::string::npos);
  // No one reads memo counters outside --instrument builds, so plain
  // --memoize output carries none of them, nor the stats sink.
  for (const char* stats :
       {"purec_memo_stats", "purec_stats_out", "PUREC_MEMO_STATS"}) {
    EXPECT_EQ(artifacts.final_source.find(stats), std::string::npos)
        << stats;
  }
  options.instrument = true;
  const ChainArtifacts counted = run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(counted.ok) << counted.diagnostics.format();
  for (const char* stats : {"purec_memo_stats_mult", "purec_stats_out",
                            "#define PUREC_MEMO_STATS 1\n",
                            "#include <stdio.h>"}) {
    EXPECT_NE(counted.final_source.find(stats), std::string::npos)
        << stats;
  }
  // Intermediate stages stay memo-free (the rewrite is a PosPro concern).
  EXPECT_EQ(artifacts.transformed.find("purec_memo"), std::string::npos);
}

TEST(MemoChain, NoMemoizableFunctionsIsByteLevelNoop) {
  ChainOptions plain;
  ChainOptions memo;
  memo.memoize = true;
  const ChainArtifacts a = run_pure_chain(testsrc::kSatellite, plain);
  const ChainArtifacts b = run_pure_chain(testsrc::kSatellite, memo);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.final_source, b.final_source);
  EXPECT_EQ(b.memoized_calls, 0u);
  EXPECT_TRUE(b.memoization.memoizable.empty());
}

TEST(MemoChain, OffByDefaultLeavesNoTrace) {
  const ChainArtifacts artifacts = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(artifacts.ok);
  EXPECT_EQ(artifacts.final_source.find("purec_memo"), std::string::npos);
  EXPECT_TRUE(artifacts.memoization.functions.empty());
}

}  // namespace
}  // namespace purec
