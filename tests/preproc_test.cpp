#include <gtest/gtest.h>

#include "preproc/include_stripper.h"
#include "preproc/mini_cpp.h"
#include "support/diagnostics.h"

namespace purec {
namespace {

// ---------------------------------------------------------------------------
// PC-PrePro / PC-PosPro
// ---------------------------------------------------------------------------

TEST(IncludeStripper, RemovesSystemIncludesOnly) {
  const std::string src =
      "#include <stdio.h>\n"
      "#include \"mine.h\"\n"
      "#include <math.h>\n"
      "int x;\n";
  StrippedSource out = strip_system_includes(src);
  ASSERT_EQ(out.system_includes.size(), 2u);
  EXPECT_EQ(out.system_includes[0], "#include <stdio.h>");
  EXPECT_EQ(out.system_includes[1], "#include <math.h>");
  EXPECT_NE(out.text.find("#include \"mine.h\""), std::string::npos);
  EXPECT_EQ(out.text.find("<stdio.h>"), std::string::npos);
}

TEST(IncludeStripper, KeepsLineNumbersStable) {
  const std::string src = "#include <a.h>\nint x;\n";
  StrippedSource out = strip_system_includes(src);
  // `int x;` must still be on line 2.
  EXPECT_EQ(out.text, "\nint x;\n");
}

TEST(IncludeStripper, ToleratesWhitespace) {
  StrippedSource out = strip_system_includes("  #  include   <x.h>\n");
  ASSERT_EQ(out.system_includes.size(), 1u);
}

TEST(IncludeStripper, RestorePutsIncludesOnTop) {
  const std::string restored = restore_system_includes(
      "int x;\n", {"#include <stdio.h>"}, {"#include <omp.h>"});
  EXPECT_EQ(restored,
            "#include <stdio.h>\n#include <omp.h>\nint x;\n");
}

TEST(IncludeStripper, RestoreSkipsExtraIncludesTheSourceHas) {
  // The source's own spelling is kept; an extra naming the same header
  // (whatever its spacing) is dropped, and a new one is still added.
  const std::string restored = restore_system_includes(
      "int x;\n", {"#include <stdlib.h>", "#  include<stdio.h>"},
      {"#include <stdio.h>", "#include <omp.h>", "#include <stdlib.h>"});
  EXPECT_EQ(restored,
            "#include <stdlib.h>\n#  include<stdio.h>\n#include <omp.h>\n"
            "int x;\n");
}

TEST(IncludeStripper, RoundTrip) {
  const std::string src = "#include <m.h>\nint y;\n";
  StrippedSource stripped = strip_system_includes(src);
  const std::string restored =
      restore_system_includes(stripped.text, stripped.system_includes);
  EXPECT_NE(restored.find("#include <m.h>"), std::string::npos);
  EXPECT_NE(restored.find("int y;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Mini preprocessor (GCC-E stand-in)
// ---------------------------------------------------------------------------

class MiniCppTest : public ::testing::Test {
 protected:
  DiagnosticEngine diags_;
  MiniPreprocessor cpp_{diags_};
};

TEST_F(MiniCppTest, ObjectMacro) {
  const std::string out = cpp_.preprocess("#define N 4096\nint a[N];\n");
  EXPECT_NE(out.find("int a[4096];"), std::string::npos);
  EXPECT_FALSE(diags_.has_errors());
}

TEST_F(MiniCppTest, MacroDoesNotTouchSubstrings) {
  const std::string out =
      cpp_.preprocess("#define N 10\nint N2 = N; int xN = 1;\n");
  EXPECT_NE(out.find("int N2 = 10;"), std::string::npos);
  EXPECT_NE(out.find("int xN = 1;"), std::string::npos);
}

TEST_F(MiniCppTest, MacroNotExpandedInStrings) {
  const std::string out =
      cpp_.preprocess("#define N 10\nconst char* s = \"N\";\n");
  EXPECT_NE(out.find("\"N\""), std::string::npos);
}

TEST_F(MiniCppTest, FunctionMacro) {
  const std::string out =
      cpp_.preprocess("#define SQR(x) ((x) * (x))\nint y = SQR(a + 1);\n");
  EXPECT_NE(out.find("(((a + 1)) * ((a + 1)))"), std::string::npos);
}

TEST_F(MiniCppTest, FunctionMacroTwoParams) {
  const std::string out =
      cpp_.preprocess(
          "#define IDX(i, j) ((i) * 64 + (j))\nint k = IDX(r, c);\n");
  EXPECT_NE(out.find("(((r)) * 64 + ((c)))"), std::string::npos);
}

TEST_F(MiniCppTest, NestedExpansion) {
  const std::string out =
      cpp_.preprocess("#define A B\n#define B 7\nint x = A;\n");
  EXPECT_NE(out.find("int x = 7;"), std::string::npos);
}

TEST_F(MiniCppTest, Undef) {
  const std::string out =
      cpp_.preprocess("#define N 1\n#undef N\nint x = N;\n");
  EXPECT_NE(out.find("int x = N;"), std::string::npos);
}

TEST_F(MiniCppTest, IfdefTakenAndSkipped) {
  const std::string out = cpp_.preprocess(
      "#define FLAG 1\n"
      "#ifdef FLAG\nint yes;\n#else\nint no;\n#endif\n"
      "#ifdef OTHER\nint skipped;\n#endif\n");
  EXPECT_NE(out.find("int yes;"), std::string::npos);
  EXPECT_EQ(out.find("int no;"), std::string::npos);
  EXPECT_EQ(out.find("int skipped;"), std::string::npos);
}

TEST_F(MiniCppTest, IfndefWorks) {
  const std::string out =
      cpp_.preprocess("#ifndef X\nint a;\n#else\nint b;\n#endif\n");
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_EQ(out.find("int b;"), std::string::npos);
}

TEST_F(MiniCppTest, UserIncludeResolved) {
  cpp_.add_include_file("defs.h", "#define N 32\n");
  const std::string out =
      cpp_.preprocess("#include \"defs.h\"\nint a[N];\n");
  EXPECT_NE(out.find("int a[32];"), std::string::npos);
}

TEST_F(MiniCppTest, MissingUserIncludeIsError) {
  (void)cpp_.preprocess("#include \"nope.h\"\n");
  EXPECT_TRUE(diags_.has_error_containing("cannot resolve"));
}

TEST_F(MiniCppTest, PragmaPassesThrough) {
  const std::string out = cpp_.preprocess("#pragma omp parallel for\n");
  EXPECT_NE(out.find("#pragma omp parallel for"), std::string::npos);
}

TEST_F(MiniCppTest, LineContinuationInDefine) {
  const std::string out =
      cpp_.preprocess("#define LONG(a) \\\n  ((a) + 1)\nint x = LONG(2);\n");
  EXPECT_NE(out.find("(((2)) + 1)"), std::string::npos);
}

TEST_F(MiniCppTest, UnterminatedIfdefReportsError) {
  (void)cpp_.preprocess("#ifdef A\nint x;\n");
  EXPECT_TRUE(diags_.has_error_containing("unterminated #if"));
}

TEST_F(MiniCppTest, PredefinedMacro) {
  cpp_.define("SIZE", "128");
  const std::string out = cpp_.preprocess("int a[SIZE];\n");
  EXPECT_NE(out.find("int a[128];"), std::string::npos);
}

TEST_F(MiniCppTest, NestedIfdef) {
  cpp_.define("A", "1");
  const std::string out = cpp_.preprocess(
      "#ifdef A\n#ifdef B\nint ab;\n#else\nint a_only;\n#endif\n#endif\n");
  EXPECT_EQ(out.find("int ab;"), std::string::npos);
  EXPECT_NE(out.find("int a_only;"), std::string::npos);
}

}  // namespace
}  // namespace purec
