#include <gtest/gtest.h>

#include "emit/c_printer.h"
#include "parser/parser.h"
#include "support/diagnostics.h"

namespace purec {
namespace {

std::string reprint(const std::string& source,
                    PureHandling handling = PureHandling::Keep) {
  SourceBuffer buf = SourceBuffer::from_string(source);
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.format(&buf);
  PrintOptions options;
  options.pure_handling = handling;
  return print_c(tu, options);
}

TEST(Emit, SimpleFunction) {
  const std::string out = reprint("int add(int a, int b) { return a + b; }");
  EXPECT_NE(out.find("int add(int a, int b)"), std::string::npos);
  EXPECT_NE(out.find("return a + b;"), std::string::npos);
}

TEST(Emit, KeepModePreservesPure) {
  const std::string out =
      reprint("pure int* f(pure int* p, int n);", PureHandling::Keep);
  EXPECT_NE(out.find("pure"), std::string::npos);
  EXPECT_NE(out.find("pure int* p"), std::string::npos);
}

TEST(Emit, LowerModeDropsFunctionPure) {
  const std::string out =
      reprint("pure float dot(pure float* a, int n) { return a[0]; }",
              PureHandling::Lower);
  EXPECT_EQ(out.find("pure"), std::string::npos);
  // Paper Listing 8: pure pointer params become pointer-to-const.
  EXPECT_NE(out.find("const float* a"), std::string::npos);
}

TEST(Emit, LowerModeRewritesPureCasts) {
  const std::string out = reprint(
      "float** A;\n"
      "void f(int i) { float* x = (pure float*)A[i]; }",
      PureHandling::Lower);
  EXPECT_EQ(out.find("pure"), std::string::npos);
  EXPECT_NE(out.find("(const float*)"), std::string::npos);
}

TEST(Emit, LoweredOutputIsPlainC) {
  // The lowered output of the paper's Listing 7 shape must not contain the
  // keyword at all — that is the whole point of PC-PosPro.
  const std::string out = reprint(
      "pure float mult(float a, float b) { return a * b; }\n"
      "pure float dot(pure float* a, pure float* b, int n) {\n"
      "  float res = 0.0f;\n"
      "  for (int i = 0; i < n; ++i) res += mult(a[i], b[i]);\n"
      "  return res;\n"
      "}\n",
      PureHandling::Lower);
  EXPECT_EQ(out.find("pure"), std::string::npos);
  EXPECT_NE(out.find("const float* a"), std::string::npos);
  EXPECT_NE(out.find("const float* b"), std::string::npos);
}

TEST(Emit, PrecedenceParenthesization) {
  // (a + b) * c must not print as a + b * c.
  SourceBuffer buf = SourceBuffer::from_string("int f(int a, int b, int c) "
                                               "{ return (a + b) * c; }");
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  const std::string out = print_c(tu);
  EXPECT_NE(out.find("(a + b) * c"), std::string::npos);
}

TEST(Emit, RightAssociativeMinusNeedsParens) {
  // a - (b - c) must keep its parentheses.
  const std::string out =
      reprint("int f(int a, int b, int c) { return a - (b - c); }");
  EXPECT_NE(out.find("a - (b - c)"), std::string::npos);
}

TEST(Emit, UnaryMinusChain) {
  const std::string out = reprint("int f(int a) { return - -a; }");
  EXPECT_EQ(out.find("--"), std::string::npos) << out;
}

TEST(Emit, PragmasFlushLeft) {
  const std::string out = reprint(
      "void f(int n) {\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < n; i++) ;\n"
      "}");
  EXPECT_NE(out.find("\n#pragma omp parallel for\n"), std::string::npos);
}

TEST(Emit, ArrayDeclaration) {
  const std::string out = reprint("void f() { int a[100]; float b[4][8]; }");
  EXPECT_NE(out.find("int a[100];"), std::string::npos);
  EXPECT_NE(out.find("float b[4][8];"), std::string::npos);
}

TEST(Emit, PointerDeclarationSpacing) {
  const std::string out = reprint("float **A;");
  EXPECT_NE(out.find("float** A;"), std::string::npos);
}

TEST(Emit, ForWithSharedSpecifier) {
  const std::string out =
      reprint("void f() { for (int i = 0, j = 9; i < j; i++) ; }");
  EXPECT_NE(out.find("for (int i = 0, j = 9; i < j; i++)"),
            std::string::npos);
}

TEST(Emit, StructAndTypedef) {
  const std::string out = reprint(
      "struct point { int x; int y; };\n"
      "typedef struct point pt;\n");
  EXPECT_NE(out.find("struct point {"), std::string::npos);
  EXPECT_NE(out.find("typedef struct point pt;"), std::string::npos);
}

TEST(Emit, CharAndStringLiteralsVerbatim) {
  const std::string out =
      reprint("void f() { char c = 'x'; const char* s = \"a\\nb\"; }");
  EXPECT_NE(out.find("'x'"), std::string::npos);
  EXPECT_NE(out.find("\"a\\nb\""), std::string::npos);
}

TEST(Emit, VolatileAndRestrictSurviveTheRoundTrip) {
  // Dropping `volatile` lets gcc hoist the read out of the spin loop;
  // dropping `restrict` loses the programmer's no-alias promise.
  const std::string out = reprint(
      "volatile int flag;\n"
      "int* volatile slot;\n"
      "void copy(float* restrict dst, const float* restrict src, int n) {\n"
      "  int spin = 0;\n"
      "  while (flag) spin++;\n"
      "  volatile float* p = (volatile float*)dst;\n"
      "  for (int i = 0; i < n; i++) dst[i] = src[i] + p[0];\n"
      "}\n",
      PureHandling::Lower);
  EXPECT_NE(out.find("volatile int flag;"), std::string::npos) << out;
  EXPECT_NE(out.find("int* volatile slot;"), std::string::npos) << out;
  EXPECT_NE(out.find("float* restrict dst"), std::string::npos) << out;
  EXPECT_NE(out.find("const float* restrict src"), std::string::npos)
      << out;
  EXPECT_NE(out.find("volatile float* p = (volatile float*)dst;"),
            std::string::npos)
      << out;
}

TEST(Emit, FormatDeclarationHelper) {
  TypePtr t = Type::make_pointer(Type::make_builtin(BuiltinKind::Float),
                                 false, true);
  EXPECT_EQ(format_declaration(t, "a", PureHandling::Keep), "pure float* a");
  EXPECT_EQ(format_declaration(t, "a", PureHandling::Lower),
            "const float* a");
}

}  // namespace
}  // namespace purec
