// The local-pointer analysis (purity/local_pointers.h), one table: each row
// pins a pointer's provenance and its chain base together, then checks
// that the two purity consumers built on that provenance — the §3.2
// verifier on the annotated body and inference on its keyword-free twin —
// both accept `free(p)` exactly when the provenance is Heap.
#include <gtest/gtest.h>

#include <memory>

#include "parser/parser.h"
#include "purity/effects.h"
#include "purity/local_pointers.h"
#include "purity/purity_checker.h"
#include "support/diagnostics.h"

namespace purec {
namespace {

struct Row {
  const char* name;
  /// Parameter list; PURE marks where the annotated twin says `pure`.
  const char* params;
  const char* body;
  const char* pointer;
  Provenance provenance;
  /// "fresh", "unresolved", or the resolved target as "root+offset".
  const char* base;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

const Row kRows[] = {
    {"shadowed_name", "int n",
     "  int a[8];\n"
     "  int* p = a;\n"
     "  { int* p = (int*)malloc(32); p[0] = n; }\n",
     "p", Provenance::LocalStorage, "unresolved"},
    // The inner pointer holds the caller's memory, so the shared name is
    // no longer local storage.
    {"array_shadowed_by_pointer", "PURE int* q, int n",
     "  int x[4];\n"
     "  { int* x = q; n = x[0]; }\n",
     "x", Provenance::Foreign, "unresolved"},
    {"definition_cycle", "int n",
     "  int a[8];\n"
     "  int* p = a;\n"
     "  int* q = p;\n"
     "  p = q;\n"
     "  q = p;\n",
     "p", Provenance::LocalStorage, "unresolved"},
    {"address_escape", "int n",
     "  int* p = (int*)malloc(32);\n"
     "  int** pp = &p;\n"
     "  int r = pp[0][0];\n",
     "p", Provenance::Foreign, "unresolved"},
    {"compound_step", "int n",
     "  int a[8];\n"
     "  int* p = a;\n"
     "  p += 2;\n"
     "  p[0] = n;\n",
     "p", Provenance::LocalStorage, "unresolved"},
    {"heap_pointer", "int n",
     "  int* h = (int*)malloc(32);\n"
     "  int* p = h;\n"
     "  p[1] = n;\n",
     "h", Provenance::Heap, "fresh"},
    {"copy_of_heap_pointer", "int n",
     "  int* h = (int*)malloc(32);\n"
     "  int* p = h;\n"
     "  p[1] = n;\n",
     "p", Provenance::Heap, "h+0"},
    // `&X[k]` is `X + k`: the base's provenance, capped at LocalStorage,
    // and the same base the chain resolves.
    {"element_address", "int n",
     "  int a[8];\n"
     "  int* p = &a[3];\n"
     "  int r = p[0];\n",
     "p", Provenance::LocalStorage, "a+3"},
    {"strtol_end_pointer", "PURE char* s, int n",
     "  char buf[8];\n"
     "  char* end = buf;\n"
     "  long v = strtol(s, &end, 10);\n",
     "end", Provenance::Foreign, "unresolved"},
};

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// `int f(params) { body free(pointer); return n; }`, annotated or not.
std::string twin(const Row& row, bool annotated) {
  const std::string pure = annotated ? "pure " : "";
  return pure + "int f(" + replace_all(row.params, "PURE ", pure) +
         ") {\n" + row.body + "  free(" + row.pointer +
         ");\n  return n;\n}\n";
}

std::string base_of(const PointerBases& bases, const std::string& pointer) {
  if (bases.unresolved.count(pointer) != 0) return "unresolved";
  const auto it = bases.resolved.find(pointer);
  if (it == bases.resolved.end()) return "fresh";
  return it->second.root + "+" + std::to_string(it->second.offset);
}

class LocalPointersTable : public ::testing::TestWithParam<Row> {};

TEST_P(LocalPointersTable, ProvenanceBaseAndFreeVerdictsAgree) {
  const Row& row = GetParam();
  const bool heap = row.provenance == Provenance::Heap;

  DiagnosticEngine diags;
  SourceBuffer buf = SourceBuffer::from_string(twin(row, false));
  const TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.format(&buf);
  const SymbolTable symbols = SymbolTable::build(tu, diags);
  const FunctionDecl* fn = tu.find_function("f");
  ASSERT_NE(fn, nullptr);
  const FunctionScopeInfo& scope = *symbols.scope_for(*fn);

  const LocalPointers pointers(*fn, scope);
  EXPECT_EQ(pointers.of(row.pointer), row.provenance);
  EXPECT_EQ(base_of(pointers.bases(), row.pointer), row.base);

  // Inference on the keyword-free twin.
  const EffectSummary effects = compute_effects(*fn, scope);
  EXPECT_EQ(effects.pure_locally, heap) << effects.impurity_reason;
  if (!heap) {
    EXPECT_EQ(effects.impurity_reason, "frees memory it did not allocate");
  }

  // The §3.2 verifier on the annotated twin.
  DiagnosticEngine checker_diags;
  SourceBuffer annotated = SourceBuffer::from_string(twin(row, true));
  const auto annotated_tu = std::make_unique<TranslationUnit>(
      parse(annotated, checker_diags));
  ASSERT_FALSE(checker_diags.has_errors())
      << checker_diags.format(&annotated);
  (void)check_purity(*annotated_tu, checker_diags);
  EXPECT_EQ(checker_diags.has_error_containing(
                "frees memory it did not allocate"),
            !heap)
      << checker_diags.format(&annotated);
}

INSTANTIATE_TEST_SUITE_P(Bodies, LocalPointersTable,
                         ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

TEST(LocalPointers, ReturnsFreshOnlyWhenTheResultReachesNoOneElse) {
  const auto returns_fresh = [](const std::string& src) {
    DiagnosticEngine diags;
    SourceBuffer buf = SourceBuffer::from_string(src);
    const TranslationUnit tu = parse(buf, diags);
    const SymbolTable symbols = SymbolTable::build(tu, diags);
    const FunctionDecl* fn = tu.find_function("f");
    return LocalPointers(*fn, *symbols.scope_for(*fn)).returns_fresh();
  };
  EXPECT_TRUE(returns_fresh("float* f(int n) { return malloc(n); }\n"));
  EXPECT_TRUE(returns_fresh(
      "float* f(int n) {\n"
      "  float* v = (float*)malloc(n * 4);\n"
      "  for (int i = 0; i < n; i++) v[i] = 0.0f;\n"
      "  *v = 1.0f;\n"
      "  return v;\n"
      "}\n"));
  // Stored in a global, passed to a call, copied, stepped, or not every
  // definition an allocation: the caller's pointer may alias something.
  EXPECT_FALSE(returns_fresh(
      "float* g;\n"
      "float* f(int n) {\n"
      "  float* v = (float*)malloc(n); g = v; return v; }\n"));
  EXPECT_FALSE(returns_fresh(
      "void keep(float* p);\n"
      "float* f(int n) {\n"
      "  float* v = (float*)malloc(n); keep(v); return v; }\n"));
  EXPECT_FALSE(returns_fresh(
      "float* f(int n) {\n"
      "  float* v = (float*)malloc(n); float* w = v; return v; }\n"));
  EXPECT_FALSE(returns_fresh(
      "float* f(int n) { float* v = (float*)malloc(n); v++; return v; }\n"));
  EXPECT_FALSE(returns_fresh(
      "float* f(float* a, int n) {\n"
      "  float* v = (float*)malloc(n); if (n) v = a; return v; }\n"));
  EXPECT_FALSE(returns_fresh("int f(int n) { return n; }\n"));
}

TEST(LocalPointers, FreshCalleesMakeTheirResultsFreshForTheChainOnly) {
  DiagnosticEngine diags;
  SourceBuffer buf = SourceBuffer::from_string(
      "int f(int n) {\n"
      "  float* x = alloc_vec(n);\n"
      "  x[0] = 1.0f;\n"
      "  return n;\n"
      "}\n");
  const TranslationUnit tu = parse(buf, diags);
  const SymbolTable symbols = SymbolTable::build(tu, diags);
  const FunctionDecl* fn = tu.find_function("f");
  const LocalPointers pointers(*fn, *symbols.scope_for(*fn));
  EXPECT_EQ(base_of(pointers.bases(), "x"), "unresolved");
  EXPECT_EQ(base_of(pointers.bases({"alloc_vec"}), "x"), "fresh");
  // free() and the capture rules stay malloc/calloc-only.
  EXPECT_EQ(pointers.of("x"), Provenance::Foreign);
}

}  // namespace
}  // namespace purec
