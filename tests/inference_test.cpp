// Tests of the interprocedural purity-inference subsystem: the call
// graph (src/purity/callgraph.*), per-function effect summaries
// (src/purity/effects.*), the SCC-aware fixpoint (src/purity/inference.*),
// and the chain wiring behind ChainOptions::infer_purity.
#include <gtest/gtest.h>

#include "parser/parser.h"
#include "purity/callgraph.h"
#include "purity/effects.h"
#include "purity/inference.h"
#include "sema/symbols.h"
#include "support/diagnostics.h"
#include "test_sources.h"
#include "transform/pure_chain.h"

namespace purec {
namespace {

struct InferOutcome {
  DiagnosticEngine diags;
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<SymbolTable> symbols;
  InferenceResult result;
};

InferOutcome infer(const std::string& src, PurityOptions options = {}) {
  InferOutcome out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  out.tu = std::make_unique<TranslationUnit>(parse(buf, out.diags));
  EXPECT_FALSE(out.diags.has_errors())
      << "fixture must parse: " << out.diags.format(&buf);
  out.symbols =
      std::make_unique<SymbolTable>(SymbolTable::build(*out.tu, out.diags));
  out.result = infer_purity(*out.tu, *out.symbols, options);
  return out;
}

const FunctionPurity& purity_of(const InferOutcome& out,
                                const std::string& name) {
  const auto it = out.result.functions.find(name);
  EXPECT_NE(it, out.result.functions.end()) << "no verdict for " << name;
  return it->second;
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

TEST(CallGraph, EdgesAndExternals) {
  DiagnosticEngine diags;
  SourceBuffer buf = SourceBuffer::from_string(
      "int helper(int a) { return a + 1; }\n"
      "int top(int a) { return helper(a) + printf_like(a); }\n");
  TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors());
  const CallGraph graph = CallGraph::build(tu);

  const CallGraphNode* top = graph.node("top");
  ASSERT_NE(top, nullptr);
  EXPECT_FALSE(top->is_external());
  EXPECT_EQ(top->callees, (std::set<std::string>{"helper", "printf_like"}));

  const CallGraphNode* ext = graph.node("printf_like");
  ASSERT_NE(ext, nullptr);
  EXPECT_TRUE(ext->is_external());
}

TEST(CallGraph, SccsComeCalleesFirstAndGroupCycles) {
  DiagnosticEngine diags;
  SourceBuffer buf = SourceBuffer::from_string(
      "int is_odd(int n);\n"
      "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }\n"
      "int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }\n"
      "int driver(int n) { return is_even(n); }\n");
  TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors());
  const CallGraph graph = CallGraph::build(tu);
  const auto sccs = graph.sccs();

  // The mutually recursive pair is one SCC, emitted before its caller.
  std::size_t pair_index = sccs.size();
  std::size_t driver_index = sccs.size();
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].size() == 2) pair_index = i;
    if (sccs[i].size() == 1 && sccs[i][0]->name == "driver") driver_index = i;
  }
  ASSERT_LT(pair_index, sccs.size());
  ASSERT_LT(driver_index, sccs.size());
  EXPECT_LT(pair_index, driver_index);
  EXPECT_EQ(sccs[pair_index][0]->name, "is_even");
  EXPECT_EQ(sccs[pair_index][1]->name, "is_odd");
}

TEST(CallGraph, LoopWitnessesReachThroughCalleesAndCycles) {
  DiagnosticEngine diags;
  SourceBuffer buf = SourceBuffer::from_string(
      "int sum(int* a, int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) s += a[i];\n"
      "  return s;\n"
      "}\n"
      "int spin(int n) { while (n > 1) n = n / 2; return n; }\n"
      "int wrap(int* a, int n) { return sum(a, n) + ext(n); }\n"
      "int is_odd(int n);\n"
      "int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }\n"
      "int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }\n"
      "int straight(int a) { return ext(a) * 2; }\n");
  TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors());
  const std::map<std::string, LoopWitness> loops =
      loop_witnesses(CallGraph::build(tu));

  ASSERT_EQ(loops.count("sum"), 1u);
  EXPECT_EQ(loops.at("sum").function, "sum");
  EXPECT_FALSE(loops.at("sum").recursive);
  EXPECT_EQ(loops.at("spin").function, "spin");
  EXPECT_EQ(loops.at("wrap").function, "sum");
  EXPECT_FALSE(loops.at("wrap").recursive);
  EXPECT_TRUE(loops.at("is_even").recursive);
  EXPECT_TRUE(loops.at("is_odd").recursive);
  // Straight-line code and external callees run no loop.
  EXPECT_EQ(loops.count("straight"), 0u);
  EXPECT_EQ(loops.count("ext"), 0u);
}

// ---------------------------------------------------------------------------
// Effect summaries
// ---------------------------------------------------------------------------

struct EffectsOutcome {
  DiagnosticEngine diags;
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<SymbolTable> symbols;
};

EffectSummary effects_of(EffectsOutcome& out, const std::string& src,
                         const std::string& name) {
  SourceBuffer buf = SourceBuffer::from_string(src);
  out.tu = std::make_unique<TranslationUnit>(parse(buf, out.diags));
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format(&buf);
  out.symbols =
      std::make_unique<SymbolTable>(SymbolTable::build(*out.tu, out.diags));
  const FunctionDecl* fn = out.tu->find_function(name);
  EXPECT_NE(fn, nullptr);
  return compute_effects(*fn, *out.symbols->scope_for(*fn));
}

TEST(Effects, LocalComputationIsPure) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "float f(float* a, int n) { float r = 0.0f;\n"
           "  for (int i = 0; i < n; i++) r += a[i];\n"
           "  return r; }\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_TRUE(s.callees.empty());
}

TEST(Effects, WriteThroughParameterIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "void f(int* a) { a[0] = 1; }\n", "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.writes_through_param);
  EXPECT_NE(s.impurity_reason.find("parameter 'a'"), std::string::npos);
}

TEST(Effects, GlobalWriteAndReadAreTracked) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int counter; int bias;\n"
           "int f(int a) { counter = a; return a + bias; }\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.writes_global);
  EXPECT_NE(s.impurity_reason.find("global 'counter'"), std::string::npos);
  EXPECT_EQ(s.global_reads.count("bias"), 1u);
}

TEST(Effects, VolatileAccessIsAnEffect) {
  // Reading a volatile global is an event: the same arguments may meet a
  // different value, so the function is not inferably pure.
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "volatile int ticks;\n"
           "int f(int a) { return a + ticks; }\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_EQ(s.impurity_reason, "accesses volatile 'ticks'");
  EffectsOutcome through;
  const EffectSummary p = effects_of(
      through, "int g(volatile int* port) { return port[0]; }\n", "g");
  EXPECT_FALSE(p.pure_locally);
  EXPECT_EQ(p.impurity_reason, "accesses volatile 'port'");
}

TEST(Effects, MallocedLocalIsWritableAndFreeable) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int f(int n) {\n"
           "  int* buf = (int*)malloc(n * sizeof(int));\n"
           "  int* alias = buf;\n"
           "  for (int i = 0; i < n; i++) buf[i] = i;\n"
           "  int r = buf[0];\n"
           "  free(alias);\n"
           "  return r; }\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_TRUE(s.allocates);
  EXPECT_TRUE(s.frees);
}

TEST(Effects, FreeingAParameterIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "void f(int* p) { free(p); }\n", "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("frees memory"), std::string::npos);
}

TEST(Effects, IndirectCallIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int f(int* fp, int a) { return (*fp)(a); }\n", "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.has_indirect_call);
}

TEST(Effects, WriteThroughForeignLocalPointerIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int g;\n"
           "void f() { int* p = &g; *p = 1; }\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.writes_unknown_pointer);
}

TEST(Effects, StoringForeignPointerIntoLocalStorageIsAnEffect) {
  EffectsOutcome out;
  // rows is local, but once it holds the caller's pointer, writes through
  // rows[0] would reach caller memory while still rooting at a local.
  const EffectSummary s = effects_of(
      out, "void f(float* data) {\n"
           "  float* rows[2];\n"
           "  rows[0] = data;\n"
           "  rows[0][0] = 1.0f; }\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("local storage"), std::string::npos);
}

TEST(Effects, StaticLocalStateIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int next() { static int c = 0; c = c + 1; return c; }\n",
      "next");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("static local 'c'"), std::string::npos)
      << s.impurity_reason;
}

TEST(Effects, ForeignPointerArithmeticCannotLaunderIntoLocalStorage) {
  EffectsOutcome out;
  // g + 1 is still the global object g; storing it into heap-provenance
  // t and writing through t[0] would race with other threads.
  const EffectSummary s = effects_of(
      out, "float* g;\n"
           "int f1(int n) {\n"
           "  float** t = (float**)malloc(8);\n"
           "  t[0] = g + 1;\n"
           "  t[0][0] = 1.0f;\n"
           "  free(t);\n"
           "  return n; }\n",
      "f1");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("local storage"), std::string::npos)
      << s.impurity_reason;
}

TEST(Effects, DerefLoadedForeignPointerCannotLaunderIntoLocalStorage) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "float** gpp;\n"
           "int f1(int n) {\n"
           "  float** t = (float**)malloc(8);\n"
           "  t[0] = *gpp;\n"
           "  t[0][0] = 1.0f;\n"
           "  free(t);\n"
           "  return n; }\n",
      "f1");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("local storage"), std::string::npos)
      << s.impurity_reason;
}

TEST(Effects, PointerArithmeticOverLocalStorageStaysPure) {
  EffectsOutcome out;
  // A cursor into a local array is still local storage (defined C pointer
  // arithmetic cannot leave the object).
  const EffectSummary s = effects_of(
      out, "int h(int n) {\n"
           "  float buf[4];\n"
           "  float* p = buf + 1;\n"
           "  *p = 1.0f;\n"
           "  return n; }\n",
      "h");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
}

TEST(Effects, InteriorPointerIntoHeapIsWritableButNotFreeable) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int h(int n) {\n"
           "  int* base = (int*)malloc(16);\n"
           "  int* cur = base + 1;\n"
           "  *cur = 1;\n"
           "  free(cur);\n"
           "  return n; }\n",
      "h");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("frees memory"), std::string::npos)
      << s.impurity_reason;
}

TEST(Effects, IncrementedHeapPointerIsNoLongerFreeable) {
  EffectsOutcome out;
  // p++ makes p an interior pointer: still write-safe, but free(p) would
  // be undefined behavior — inference must not bless it.
  const EffectSummary s = effects_of(
      out, "int f(int n) {\n"
           "  int* p = (int*)malloc(n * 4);\n"
           "  p++;\n"
           "  *p = 1;\n"
           "  free(p);\n"
           "  return n; }\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("frees memory"), std::string::npos)
      << s.impurity_reason;
}

TEST(Effects, AliasToStaticLocalIsNotLocalStorage) {
  EffectsOutcome out;
  // Writing persistent static state through a pointer alias is exactly as
  // impure as the direct write.
  const EffectSummary s = effects_of(
      out, "int counter() {\n"
           "  static int c = 0;\n"
           "  int* p = &c;\n"
           "  *p = *p + 1;\n"
           "  return *p; }\n",
      "counter");
  EXPECT_FALSE(s.pure_locally);

  EffectsOutcome out2;
  const EffectSummary s2 = effects_of(
      out2, "int bump(int x) {\n"
            "  static int tab[4];\n"
            "  int* p = tab;\n"
            "  p[x % 4]++;\n"
            "  return p[x % 4]; }\n",
      "bump");
  EXPECT_FALSE(s2.pure_locally);
}

TEST(Effects, LocalArrayWritesAreInvisible) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out, "int f(int a) { int scratch[4]; scratch[0] = a;\n"
           "  int* p = scratch; p[1] = a; return scratch[0] + p[1]; }\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
}

// ---------------------------------------------------------------------------
// Fixpoint inference
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Extern effect database (memcpy & friends beyond the seed hashset)
// ---------------------------------------------------------------------------

TEST(ExternEffects, DatabaseClassifiesTheModeledFunctions) {
  ASSERT_NE(extern_effect("memcpy"), nullptr);
  EXPECT_EQ(extern_effect("memcpy")->kind, ExternEffectKind::WritesArg0);
  ASSERT_NE(extern_effect("memmove"), nullptr);
  EXPECT_EQ(extern_effect("memmove")->kind, ExternEffectKind::WritesArg0);
  ASSERT_NE(extern_effect("memset"), nullptr);
  EXPECT_EQ(extern_effect("memset")->kind, ExternEffectKind::WritesArg0);
  ASSERT_NE(extern_effect("snprintf"), nullptr);
  EXPECT_EQ(extern_effect("snprintf")->kind, ExternEffectKind::WritesArg0);
  ASSERT_NE(extern_effect("strlen"), nullptr);
  EXPECT_EQ(extern_effect("strlen")->kind, ExternEffectKind::ReadOnly);
  ASSERT_NE(extern_effect("memcmp"), nullptr);
  EXPECT_EQ(extern_effect("memcmp")->kind, ExternEffectKind::ReadOnly);
  EXPECT_EQ(extern_effect("sprintf"), nullptr);  // unbounded: not modeled
  // The string.h/stdlib.h growth pass: readers and value functions.
  ASSERT_NE(extern_effect("strchr"), nullptr);
  EXPECT_EQ(extern_effect("strchr")->kind, ExternEffectKind::ReadOnly);
  ASSERT_NE(extern_effect("strrchr"), nullptr);
  ASSERT_NE(extern_effect("strncmp"), nullptr);
  EXPECT_EQ(extern_effect("strncmp")->kind, ExternEffectKind::ReadOnly);
  ASSERT_NE(extern_effect("abs"), nullptr);
  EXPECT_EQ(extern_effect("abs")->kind, ExternEffectKind::ReadOnly);
  ASSERT_NE(extern_effect("labs"), nullptr);
  EXPECT_EQ(extern_effect("labs")->kind, ExternEffectKind::ReadOnly);
}

TEST(ExternEffects, MathValueFunctionsAreReadOnly) {
  // fmin/fmax/fabs/sqrt (and float variants) take no pointers at all:
  // trivially ReadOnly. They were already in the pure seed hashset;
  // modeling them here records them in extern_calls instead of leaving
  // them outside the effect database.
  for (const char* name : {"fmin", "fmax", "fabs", "sqrt", "fminf",
                           "fmaxf", "fabsf", "sqrtf"}) {
    ASSERT_NE(extern_effect(name), nullptr) << name;
    EXPECT_EQ(extern_effect(name)->kind, ExternEffectKind::ReadOnly)
        << name;
  }
}

TEST(ExternEffects, MathCallsResolveAndPopulateExternCalls) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "double f(double a, double b) {\n"
      "  return fmin(fabs(a), sqrt(fmax(b, 0.0)));\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("fmin"), 0u)
      << "modeled externs are resolved, not pessimized";
  EXPECT_EQ(s.extern_calls.count("fmin"), 1u);
  EXPECT_EQ(s.extern_calls.count("fabs"), 1u);
  EXPECT_EQ(s.extern_calls.count("sqrt"), 1u);
  EXPECT_EQ(s.extern_calls.count("fmax"), 1u);
}

TEST(ExternEffects, StrchrResolvedNotPessimized) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* s) {\n"
      "  return strchr(s, 46) != 0;\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("strchr"), 0u)
      << "modeled externs are resolved, not pessimized";
  EXPECT_EQ(s.extern_calls.count("strchr"), 1u);
}

TEST(ExternEffects, MemcpyIntoLocalBufferStaysPure) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(int* src, int n) {\n"
      "  int buf[16];\n"
      "  memcpy(buf, src, n * sizeof(int));\n"
      "  return buf[0];\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("memcpy"), 0u)
      << "modeled externs are resolved, not pessimized";
}

TEST(ExternEffects, MemcpyThroughParameterIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "void f(int* dst, int* src, int n) {\n"
      "  memcpy(dst, src, n * sizeof(int));\n"
      "}\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.writes_unknown_pointer);
  EXPECT_NE(s.impurity_reason.find("'memcpy'"), std::string::npos)
      << s.impurity_reason;
  EXPECT_NE(s.impurity_reason.find("caller or global"), std::string::npos);
}

TEST(ExternEffects, MemsetAndMemmoveFollowTheSameRule) {
  EffectsOutcome local;
  const EffectSummary ok = effects_of(
      local,
      "int f(int n) {\n"
      "  int buf[8];\n"
      "  memset(buf, 0, sizeof(buf));\n"
      "  memmove(buf + 1, buf, 4);\n"
      "  return buf[0] + n;\n"
      "}\n",
      "f");
  EXPECT_TRUE(ok.pure_locally) << ok.impurity_reason;

  EffectsOutcome global;
  const EffectSummary bad = effects_of(
      global,
      "int shared[8];\n"
      "int f(int n) { memset(shared, 0, sizeof(shared)); return n; }\n",
      "f");
  EXPECT_FALSE(bad.pure_locally);
  EXPECT_NE(bad.impurity_reason.find("'memset'"), std::string::npos);
}

TEST(ExternEffects, StringCopyFamilyIsWritesArg0) {
  for (const char* name : {"strcpy", "strncpy", "strcat"}) {
    ASSERT_NE(extern_effect(name), nullptr) << name;
    EXPECT_EQ(extern_effect(name)->kind, ExternEffectKind::WritesArg0)
        << name;
  }
}

TEST(ExternEffects, StringScannerFamilyIsReadOnly) {
  for (const char* name : {"strcspn", "strspn", "strstr"}) {
    ASSERT_NE(extern_effect(name), nullptr) << name;
    EXPECT_EQ(extern_effect(name)->kind, ExternEffectKind::ReadOnly)
        << name;
  }
}

TEST(ExternEffects, CtypeClassifiersAndAtoiFamilyAreReadOnly) {
  for (const char* name : {"isalpha", "isdigit", "isspace", "tolower",
                           "toupper", "atoi", "atol"}) {
    ASSERT_NE(extern_effect(name), nullptr) << name;
    EXPECT_EQ(extern_effect(name)->kind, ExternEffectKind::ReadOnly)
        << name;
  }
}

TEST(ExternEffects, StrtolFamilyMemchrAndStrncatAreClassified) {
  for (const char* name : {"strtol", "strtoul", "strtod", "strtof"}) {
    ASSERT_NE(extern_effect(name), nullptr) << name;
    EXPECT_EQ(extern_effect(name)->kind, ExternEffectKind::WritesArg1)
        << name;
  }
  ASSERT_NE(extern_effect("memchr"), nullptr);
  EXPECT_EQ(extern_effect("memchr")->kind, ExternEffectKind::ReadOnly);
  ASSERT_NE(extern_effect("strncat"), nullptr);
  EXPECT_EQ(extern_effect("strncat")->kind, ExternEffectKind::WritesArg0);
}

TEST(ExternEffects, TokenizerUsingCtypeAndAtoiInfersPure) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int parse_score(char* s) {\n"
      "  int acc = 0;\n"
      "  while (isspace(s[0])) s = s + 1;\n"
      "  if (isalpha(s[0])) return tolower(s[0]);\n"
      "  if (isdigit(s[0])) acc = atoi(s);\n"
      "  return acc + toupper(s[0]);\n"
      "}\n",
      "parse_score");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("isalpha"), 0u)
      << "modeled externs are resolved, not pessimized";
  EXPECT_EQ(s.extern_calls.count("isspace"), 1u);
  EXPECT_EQ(s.extern_calls.count("atoi"), 1u);
  EXPECT_EQ(s.extern_calls.count("tolower"), 1u);
}

TEST(ExternEffects, StrcspnAndStrstrResolveNotPessimized) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* s, char* needle) {\n"
      "  if (strstr(s, needle) != 0) return 1;\n"
      "  return strcspn(s, needle) + strspn(s, needle);\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("strstr"), 0u)
      << "modeled externs are resolved, not pessimized";
  EXPECT_EQ(s.extern_calls.count("strstr"), 1u);
  EXPECT_EQ(s.extern_calls.count("strcspn"), 1u);
  EXPECT_EQ(s.extern_calls.count("strspn"), 1u);
}

TEST(ExternEffects, StrcpyIntoLocalBufferStaysPure) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* src) {\n"
      "  char buf[64];\n"
      "  strcpy(buf, src);\n"
      "  strcat(buf, src);\n"
      "  return buf[0];\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("strcpy"), 0u)
      << "modeled externs are resolved, not pessimized";
}

TEST(ExternEffects, StrcpyThroughParameterIsAnEffect) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "void f(char* dst, char* src) {\n"
      "  strcpy(dst, src);\n"
      "}\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.writes_unknown_pointer);
  EXPECT_NE(s.impurity_reason.find("'strcpy'"), std::string::npos)
      << s.impurity_reason;
  EXPECT_NE(s.impurity_reason.find("caller or global"), std::string::npos);
}

TEST(ExternEffects, SnprintfBoundedWriteIntoLocalIsPure) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(int v) {\n"
      "  char buf[32];\n"
      "  snprintf(buf, 32, \"%d\", v);\n"
      "  return buf[0];\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.extern_calls.count("snprintf"), 1u);
}

TEST(ExternEffects, SnprintfPercentNWritesThroughFormatArguments) {
  // %n stores into a *later* pointer argument — the WritesArg0 model
  // must not launder it through a local destination buffer.
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(int* p) {\n"
      "  char buf[8];\n"
      "  snprintf(buf, 8, \"%n\", p);\n"
      "  return 0;\n"
      "}\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("%n"), std::string::npos)
      << s.impurity_reason;
}

TEST(ExternEffects, SnprintfNonLiteralFormatIsPessimized) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* fmt, int v) {\n"
      "  char buf[8];\n"
      "  snprintf(buf, 8, fmt, v);\n"
      "  return 0;\n"
      "}\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_NE(s.impurity_reason.find("non-literal format"), std::string::npos)
      << s.impurity_reason;
}

TEST(ExternEffects, ReadOnlyExternsNeverPessimize) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* a, char* b, int n) {\n"
      "  return (int)strlen(a) + memcmp(a, b, n);\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("strlen"), 0u);
  EXPECT_EQ(s.callees.count("memcmp"), 0u);
}

TEST(ExternEffects, InferenceAcceptsMemcpyIntoLocals) {
  const InferOutcome out = infer(
      "int pack(int a, int b) {\n"
      "  int tmp[2];\n"
      "  int pair[2];\n"
      "  tmp[0] = a;\n"
      "  tmp[1] = b;\n"
      "  memcpy(pair, tmp, 2 * sizeof(int));\n"
      "  return pair[0] * pair[1];\n"
      "}\n");
  const FunctionPurity& p = purity_of(out, "pack");
  EXPECT_TRUE(p.inferred) << p.reason;
}

TEST(ExternEffects, InferenceStillRejectsMemcpyThroughParams) {
  const InferOutcome out = infer(
      "void blit(int* dst, int* src, int n) {\n"
      "  memcpy(dst, src, n * sizeof(int));\n"
      "}\n");
  const FunctionPurity& p = purity_of(out, "blit");
  EXPECT_FALSE(p.pure);
  EXPECT_NE(p.reason.find("'memcpy'"), std::string::npos) << p.reason;
}

TEST(ExternEffects, StrtolWithNullEndptrStaysPure) {
  // A null-constant endptr performs no write at all: the call is a plain
  // read of its input string.
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "long f(char* s) {\n"
      "  return strtol(s, 0, 10);\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("strtol"), 0u)
      << "modeled externs are resolved, not pessimized";
  EXPECT_EQ(s.extern_calls.count("strtol"), 1u);
}

TEST(ExternEffects, StrtodIntoLocalEndptrStaysPure) {
  // &local endptr: the out-parameter store lands in function-local
  // storage, invisible to any other thread.
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "double f(char* s) {\n"
      "  char* end;\n"
      "  double v = strtod(s, &end);\n"
      "  if (end == s) return 0.0;\n"
      "  return v;\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.extern_calls.count("strtod"), 1u);
}

TEST(ExternEffects, StrtolThroughParamEndptrIsAnEffect) {
  // A caller-supplied char** receives the end pointer: that store is
  // visible outside the call.
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "long f(char* s, char** end) {\n"
      "  return strtol(s, end, 10);\n"
      "}\n",
      "f");
  EXPECT_FALSE(s.pure_locally);
  EXPECT_TRUE(s.writes_unknown_pointer);
  EXPECT_NE(s.impurity_reason.find("'strtol'"), std::string::npos)
      << s.impurity_reason;
  EXPECT_NE(s.impurity_reason.find("end pointer"), std::string::npos)
      << s.impurity_reason;
}

TEST(ExternEffects, WriteThroughEndptrAfterStrtolIsAnEffect) {
  // The callee-side store repoints the local into the input string, so a
  // later write through it reaches caller memory even though `end`
  // started out with local provenance.
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* s) {\n"
      "  char buf[8];\n"
      "  char* end = buf;\n"
      "  strtol(s, &end, 10);\n"
      "  *end = 0;\n"
      "  return 0;\n"
      "}\n",
      "f");
  EXPECT_FALSE(s.pure_locally) << "strtol repointed `end` at foreign memory";
}

TEST(ExternEffects, MemchrResolvedNotPessimized) {
  EffectsOutcome out;
  const EffectSummary s = effects_of(
      out,
      "int f(char* s, int n) {\n"
      "  return memchr(s, 46, n) != 0;\n"
      "}\n",
      "f");
  EXPECT_TRUE(s.pure_locally) << s.impurity_reason;
  EXPECT_EQ(s.callees.count("memchr"), 0u)
      << "modeled externs are resolved, not pessimized";
  EXPECT_EQ(s.extern_calls.count("memchr"), 1u);
}

TEST(ExternEffects, StrncatFollowsTheWritesArg0Rule) {
  EffectsOutcome out;
  const EffectSummary local = effects_of(
      out,
      "int f(char* s) {\n"
      "  char buf[16];\n"
      "  buf[0] = 0;\n"
      "  strncat(buf, s, 8);\n"
      "  return buf[0];\n"
      "}\n",
      "f");
  EXPECT_TRUE(local.pure_locally) << local.impurity_reason;
  EffectsOutcome out2;
  const EffectSummary foreign = effects_of(
      out2,
      "void f(char* d, char* s) {\n"
      "  strncat(d, s, 8);\n"
      "}\n",
      "f");
  EXPECT_FALSE(foreign.pure_locally);
  EXPECT_NE(foreign.impurity_reason.find("'strncat'"), std::string::npos)
      << foreign.impurity_reason;
}

TEST(ExternEffects, InferenceAcceptsStrtolWithLocalEndptr) {
  const InferOutcome out = infer(
      "long parse(char* s) {\n"
      "  char* end;\n"
      "  long v = strtol(s, &end, 10);\n"
      "  if (end == s) return -1;\n"
      "  return v;\n"
      "}\n");
  const FunctionPurity& p = purity_of(out, "parse");
  EXPECT_TRUE(p.inferred) << p.reason;
}

TEST(Inference, InfersTheUnannotatedMatmulHelpers) {
  auto out = infer(testsrc::kMatmulPlain);
  EXPECT_EQ(out.result.inferred_pure,
            (std::set<std::string>{"dot", "mult"}));
  const FunctionPurity& main_purity = purity_of(out, "main");
  EXPECT_FALSE(main_purity.pure);
  EXPECT_NE(main_purity.reason.find("global 'C'"), std::string::npos);
}

TEST(Inference, WriteThroughAnElementAddressOfALocalArrayIsPure) {
  // `&a[3]` is `a + 3`: local storage, the object the chain resolves p
  // onto. The same shape over a parameter still writes caller memory.
  auto out = infer(
      "int e(int n) {\n"
      "  int a[8];\n"
      "  int* p = &a[3];\n"
      "  *p = n;\n"
      "  return a[3];\n"
      "}\n"
      "int q(int* x, int n) {\n"
      "  int* p = &x[3];\n"
      "  *p = n;\n"
      "  return n;\n"
      "}\n");
  EXPECT_EQ(out.result.inferred_pure, (std::set<std::string>{"e"}));
  EXPECT_NE(purity_of(out, "q").reason.find("'p'"), std::string::npos)
      << purity_of(out, "q").reason;
}

TEST(ExternEffects, MemcpyIntoAnElementAddressFollowsItsBase) {
  auto out = infer(
      "int f(int* src, int n) {\n"
      "  int buf[16];\n"
      "  memcpy(&buf[2], src, n * sizeof(int));\n"
      "  return buf[2];\n"
      "}\n"
      "int g(int* dst, int* src, int n) {\n"
      "  memcpy(&dst[2], src, n * sizeof(int));\n"
      "  return n;\n"
      "}\n");
  EXPECT_EQ(out.result.inferred_pure, (std::set<std::string>{"f"}));
  EXPECT_NE(purity_of(out, "g").reason.find("'memcpy'"), std::string::npos)
      << purity_of(out, "g").reason;
}

TEST(Inference, MutuallyRecursivePairConverges) {
  auto out = infer(
      "int is_odd(int n);\n"
      "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }\n"
      "int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }\n");
  EXPECT_EQ(out.result.inferred_pure,
            (std::set<std::string>{"is_even", "is_odd"}));
}

TEST(Inference, TransitiveImpurityCarriesTheRootCause) {
  auto out = infer(
      "int counter;\n"
      "int bump(int a) { counter = a; return a; }\n"
      "int wrap(int a) { return bump(a) + 1; }\n"
      "int outer(int a) { return wrap(a) * 2; }\n");
  EXPECT_TRUE(out.result.inferred_pure.empty());
  EXPECT_NE(purity_of(out, "bump").reason.find("global 'counter'"),
            std::string::npos);
  const FunctionPurity& wrap_purity = purity_of(out, "wrap");
  EXPECT_NE(wrap_purity.reason.find("'bump'"), std::string::npos);
  EXPECT_NE(wrap_purity.reason.find("counter"), std::string::npos);
  // Two hops out, the root cause is still cited.
  EXPECT_NE(purity_of(out, "outer").reason.find("counter"),
            std::string::npos);
}

TEST(Inference, ExternalCalleesArePessimized) {
  auto out = infer(
      "double mystery(double x);\n"
      "double f(double x) { return mystery(x) + 1.0; }\n");
  EXPECT_TRUE(out.result.inferred_pure.empty());
  EXPECT_NE(purity_of(out, "f").reason.find("unknown external"),
            std::string::npos);
  EXPECT_NE(purity_of(out, "f").reason.find("mystery"), std::string::npos);
}

TEST(Inference, StandardSeedFunctionsStayPureCallees) {
  auto out = infer(
      "double f(double x) { return sin(x) + sqrt(x); }\n");
  EXPECT_EQ(out.result.inferred_pure, (std::set<std::string>{"f"}));
}

TEST(Inference, TrustedPurePrototypeIsAPureCallee) {
  auto out = infer(
      "pure float ext_helper(float x);\n"
      "float wrapper(float x) { return ext_helper(x) * 2.0f; }\n");
  // The prototype's annotation is trusted (the paper's library-function
  // rule), so the unannotated wrapper is inferable.
  EXPECT_EQ(out.result.inferred_pure, (std::set<std::string>{"wrapper"}));
}

TEST(Inference, AnnotatedFunctionsAreAxiomaticNotInferred) {
  auto out = infer(
      "pure float mult(float a, float b) { return a * b; }\n"
      "float twice(float a) { return mult(a, 2.0f); }\n");
  const FunctionPurity& mult_purity = purity_of(out, "mult");
  EXPECT_TRUE(mult_purity.pure);
  EXPECT_TRUE(mult_purity.annotated);
  EXPECT_FALSE(mult_purity.inferred);
  EXPECT_EQ(out.result.inferred_pure, (std::set<std::string>{"twice"}));
}

TEST(Inference, GlobalReadsPropagateTransitively) {
  auto out = infer(
      "int table[16];\n"
      "int look(int i) { return table[i]; }\n"
      "int wrap(int i) { return look(i) + 1; }\n");
  EXPECT_EQ(out.result.inferred_pure,
            (std::set<std::string>{"look", "wrap"}));
  const auto reads = out.result.inferred_global_reads();
  ASSERT_EQ(reads.count("wrap"), 1u);
  EXPECT_EQ(reads.at("wrap").count("table"), 1u);
}

TEST(Inference, SummaryNamesInferredAndRejected) {
  auto out = infer(testsrc::kMatmulPlain);
  const std::string summary = out.result.summary();
  EXPECT_NE(summary.find("inferred pure: dot, mult"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("rejected: main"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// Chain wiring (--infer-pure)
// ---------------------------------------------------------------------------

ChainOptions infer_options() {
  ChainOptions options;
  options.infer_purity = true;
  return options;
}

TEST(InferChain, UnannotatedMatmulParallelizesLikeItsAnnotatedTwin) {
  ChainArtifacts annotated = run_pure_chain(testsrc::kMatmul);
  ChainArtifacts plain = run_pure_chain(testsrc::kMatmulPlain,
                                        infer_options());
  ASSERT_TRUE(annotated.ok) << annotated.diagnostics.format();
  ASSERT_TRUE(plain.ok) << plain.diagnostics.format();

  // Same scop structure, same transform outcome.
  ASSERT_EQ(annotated.scops.size(), plain.scops.size());
  for (std::size_t i = 0; i < annotated.scops.size(); ++i) {
    EXPECT_EQ(annotated.scops[i].function, plain.scops[i].function);
    EXPECT_EQ(annotated.scops[i].depth, plain.scops[i].depth);
    EXPECT_EQ(annotated.scops[i].substituted_calls,
              plain.scops[i].substituted_calls);
    EXPECT_EQ(annotated.scops[i].parallelized, plain.scops[i].parallelized);
    EXPECT_EQ(annotated.scops[i].tiled, plain.scops[i].tiled);
  }

  // Identical emitted C modulo the lowered `pure` tokens: the annotated
  // twin lowers `pure` to `const` and keeps its (const float*) casts, the
  // plain twin never had either.
  auto normalize = [](std::string s) {
    for (const char* token : {"const ", "(float*)"}) {
      for (std::size_t pos; (pos = s.find(token)) != std::string::npos;) {
        s.erase(pos, std::string(token).size());
      }
    }
    return s;
  };
  EXPECT_EQ(normalize(annotated.final_source), normalize(plain.final_source));
}

TEST(InferChain, WithoutTheFlagThePlainTwinStaysSerial) {
  ChainArtifacts plain = run_pure_chain(testsrc::kMatmulPlain);
  ASSERT_TRUE(plain.ok) << plain.diagnostics.format();
  // dot is opaque without inference: no scop marks, no OpenMP, inference
  // provenance stays empty.
  EXPECT_TRUE(plain.scops.empty());
  EXPECT_EQ(plain.final_source.find("#pragma omp"), std::string::npos);
  EXPECT_TRUE(plain.inference.functions.empty());
}

TEST(InferChain, ScopReportCarriesInferenceProvenance) {
  ChainArtifacts plain = run_pure_chain(testsrc::kMatmulPlain,
                                        infer_options());
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(plain.inference.inferred_pure,
            (std::set<std::string>{"dot", "mult"}));
  bool main_scop = false;
  for (const ScopReport& r : plain.scops) {
    if (r.function != "main") continue;
    main_scop = true;
    EXPECT_EQ(r.substituted_calls, 1u);
    EXPECT_EQ(r.inferred_calls, 1u);
    EXPECT_TRUE(r.parallelized);
  }
  EXPECT_TRUE(main_scop);
}

TEST(InferChain, AnnotationAndVerifierWinOverInference) {
  // ext_helper has no definition: inference alone rejects any caller
  // (extern pessimism). The trusted `pure` prototype + verifier win, so
  // the annotated wrapper parallelizes even under --infer-pure...
  const char* annotated_src =
      "float out[64];\n"
      "pure float ext_helper(float x);\n"
      "pure float wrapper(pure float* a, int i)\n"
      "{ return ext_helper(a[i]); }\n"
      "void run(float* a) {\n"
      "  for (int i = 0; i < 64; i++) out[i] = wrapper((pure float*)a, i);\n"
      "}\n";
  ChainArtifacts annotated = run_pure_chain(annotated_src, infer_options());
  ASSERT_TRUE(annotated.ok) << annotated.diagnostics.format();
  ASSERT_EQ(annotated.scops.size(), 1u);
  EXPECT_TRUE(annotated.scops[0].parallelized);
  EXPECT_EQ(annotated.scops[0].inferred_calls, 0u);

  // ...while the keyword-free twin is rejected by inference (the wrapper
  // never enters the hashset; the loop keeps its opaque call).
  const char* plain_src =
      "float out[64];\n"
      "float ext_helper(float x);\n"
      "float wrapper(float* a, int i) { return ext_helper(a[i]); }\n"
      "void run(float* a) {\n"
      "  for (int i = 0; i < 64; i++) out[i] = wrapper(a, i);\n"
      "}\n";
  ChainArtifacts plain = run_pure_chain(plain_src, infer_options());
  ASSERT_TRUE(plain.ok) << plain.diagnostics.format();
  EXPECT_TRUE(plain.scops.empty());
  const FunctionPurity& wrapper_purity =
      plain.inference.functions.at("wrapper");
  EXPECT_FALSE(wrapper_purity.pure);
  EXPECT_NE(wrapper_purity.reason.find("unknown external"),
            std::string::npos);
}

TEST(InferChain, Listing5RuleAppliesToInferredCalls) {
  // The unannotated Listing 5: without inference `func` is opaque and the
  // loop is (trivially) skipped; with inference the call is pure, so the
  // write-target-argument rule fires exactly like the annotated original.
  const char* src =
      "int func(int* a, int idx) { return a[idx - 1] + a[idx]; }\n"
      "int main() {\n"
      "  int array[100];\n"
      "  for (int i = 1; i < 100; i++) { array[i] = func(array, i); }\n"
      "  return 0;\n"
      "}\n";
  ChainArtifacts without = run_pure_chain(src);
  EXPECT_TRUE(without.ok) << without.diagnostics.format();
  ChainArtifacts with = run_pure_chain(src, infer_options());
  EXPECT_FALSE(with.ok);
  EXPECT_TRUE(with.diagnostics.has_error_containing("Listing 5"));
}

TEST(InferChain, IncrementOfReadGlobalRejectsTheNest) {
  // G++ is a write too: the nest scanner must treat inc/dec like
  // assignments when intersecting against inferred callees' global reads.
  const char* src =
      "int G;\n"
      "int v2[64];\n"
      "float v[64];\n"
      "float g(int i) { return (float)(v2[i] * G); }\n"
      "void run() {\n"
      "  for (int i = 0; i < 64; i++) { G++; v[i] = g(i); }\n"
      "}\n";
  ChainArtifacts with = run_pure_chain(src, infer_options());
  EXPECT_FALSE(with.ok);
  EXPECT_TRUE(with.diagnostics.has_error_containing("inference provenance"))
      << with.diagnostics.format();
}

TEST(InferChain, GlobalReadsAreNotLaunderedThroughAnnotatedWrappers) {
  // g (unannotated) reads global G; annotated f wraps g. A nest that
  // writes G while calling f must still be rejected — the annotation
  // covers f's own body, not inference-derived provenance.
  const char* src =
      "int G;\n"
      "float v[64];\n"
      "float g(float x) { return x + (float)G; }\n"
      "pure float f(float x) { return g(x); }\n"
      "void run() {\n"
      "  for (int i = 0; i < 64; i++) { G = i; v[i] = f(1.0f); }\n"
      "}\n";
  ChainArtifacts with = run_pure_chain(src, infer_options());
  EXPECT_FALSE(with.ok);
  EXPECT_TRUE(with.diagnostics.has_error_containing("inference provenance"))
      << with.diagnostics.format();
}

TEST(InferChain, StaticLocalCounterIsNotInferredPure) {
  const char* src =
      "float v[64];\n"
      "int next() { static int c = 0; c = c + 1; return c; }\n"
      "void run() {\n"
      "  for (int i = 0; i < 64; i++) v[i] = (float)next();\n"
      "}\n";
  ChainArtifacts with = run_pure_chain(src, infer_options());
  ASSERT_TRUE(with.ok) << with.diagnostics.format();
  // next is rejected, the loop keeps its opaque call, nothing marks.
  EXPECT_TRUE(with.scops.empty());
  EXPECT_FALSE(with.inference.functions.at("next").pure);
  // And the emitted C keeps the `static` (it used to be dropped).
  EXPECT_NE(with.final_source.find("static int c = 0;"), std::string::npos)
      << with.final_source;
}

TEST(InferChain, LocalShadowOfReadGlobalDoesNotRejectTheNest) {
  // The nest writes a LOCAL array named like the global the inferred
  // callee reads; the provenance rule matches symbols, not names.
  const char* src =
      "int counter;\n"
      "int get() { return counter; }\n"
      "void k(float* v, int n) {\n"
      "  float counter[4];\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    counter[i % 4] = v[i];\n"
      "    v[i] = (float)get() + counter[i % 4];\n"
      "  }\n"
      "}\n";
  ChainArtifacts with = run_pure_chain(src, infer_options());
  EXPECT_TRUE(with.ok) << with.diagnostics.format();
  EXPECT_FALSE(with.diagnostics.has_error_containing("inference provenance"))
      << with.diagnostics.format();
}

TEST(InferChain, GlobalReadConflictRejectsTheNest) {
  // f reads global `data`; the loop writes data while calling f. The
  // annotated chain cannot see this (the pure cast is a programmer
  // promise); inference provenance closes it.
  const char* src =
      "int data[100];\n"
      "int f(int i) { return data[i]; }\n"
      "void run() {\n"
      "  for (int i = 1; i < 100; i++) data[i] = f(i - 1);\n"
      "}\n";
  ChainArtifacts with = run_pure_chain(src, infer_options());
  EXPECT_FALSE(with.ok);
  EXPECT_TRUE(with.diagnostics.has_error_containing("inference provenance"))
      << with.diagnostics.format();
}

TEST(InferChain, InlineExtensionComposesWithInference) {
  ChainOptions options = infer_options();
  options.inline_pure_expressions = true;
  ChainArtifacts plain = run_pure_chain(testsrc::kMatmulPlain, options);
  ASSERT_TRUE(plain.ok) << plain.diagnostics.format();
  // mult is expression-bodied and inferred pure: its call site inside dot
  // inlines away (the definition itself remains, as in the annotated twin).
  EXPECT_GE(plain.inlined_calls, 1u);
  EXPECT_EQ(plain.final_source.find("mult(a["), std::string::npos)
      << plain.final_source;
  EXPECT_NE(plain.final_source.find("a[t1] * b[t1]"), std::string::npos)
      << plain.final_source;
}

}  // namespace
}  // namespace purec
