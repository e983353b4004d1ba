#include "gen_tu.h"

#include <algorithm>
#include <array>
#include <vector>

namespace purec::e2e {

namespace {

/// Exactly representable binary fractions, so a literal means the same
/// value to every compiler and printer on the path.
constexpr std::array<const char*, 9> kFloatLiterals = {
    "0.25f", "0.5f", "0.75f", "1.25f", "1.5f",
    "1.75f", "2.0f", "2.5f", "3.0f"};

/// Pieces of the TU, appended per kernel and assembled at the end.
struct Parts {
  std::string defs;    // helper and kernel definitions
  std::string allocs;  // main: output buffers
  std::string calls;   // main: one call per kernel, inside the reps loop
  std::string sums;    // main: checksum terms
};

class KernelWriter {
 public:
  KernelWriter(Parts& parts, SeedRng& rng, std::size_t index,
               bool annotated)
      : parts_(parts),
        rng_(rng),
        id_(std::to_string(index)),
        pure_(annotated ? "pure " : "") {}

  void write(std::size_t kind) {
    switch (kind) {
      case 0: classic_nest(); return;
      case 1: affine_guard(); return;
      case 2: disjunctive_guard(); return;
      case 3: imperfect_nest(); return;
      case 4: while_loop(); return;
      case 5: strided(); return;
      case 6: int_reduction(); return;
      case 7: private_temporary(); return;
      case 8: fusible_siblings(); return;
      case 9: fission_candidate(); return;
      case 10: nonaffine_subscript(); return;
      default: impure_call(); return;
    }
  }

 private:
  std::string lit() { return kFloatLiterals[rng_.range(0, 8)]; }
  std::string num(int lo, int hi) { return std::to_string(rng_.range(lo, hi)); }
  std::string weight() { return num(0, 6); }

  void vec_output(const std::string& name) {
    parts_.allocs += "  float* " + name + " = alloc_vec(n);\n";
    parts_.sums += "  checksum = checksum + sum_vec(" + name + ", n, " +
                   weight() + ");\n";
  }
  void grid_output(const std::string& name) {
    parts_.allocs += "  float** " + name + " = alloc_grid(r);\n";
    parts_.sums += "  checksum = checksum + sum_grid(" + name + ", r, " +
                   weight() + ");\n";
  }
  void call(const std::string& args) {
    parts_.calls += "    k" + id_ + "(" + args + ");\n";
  }

  void classic_nest() {
    parts_.defs += pure_ + "float f" + id_ + "(float u, float v) {\n"
                   "  return " + lit() + " * u + v * " + lit() + ";\n}\n\n"
                   "void k" + id_ + "(float** P, float** M, int r) {\n"
                   "  for (int i = 0; i < r; i++)\n"
                   "    for (int j = 0; j < r; j++)\n"
                   "      P[i][j] = f" + id_ + "(M[i][j], M[j][i]);\n}\n\n";
    grid_output("p" + id_);
    call("p" + id_ + ", M, r");
  }

  void affine_guard() {
    parts_.defs += pure_ + "float g" + id_ + "(float v) {\n"
                   "  return " + lit() + " * v + " + lit() + ";\n}\n\n"
                   "void k" + id_ + "(float* O, float* X, int n, int m) {\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    if (i < m)\n"
                   "      O[i] = g" + id_ + "(X[i]);\n"
                   "    else\n"
                   "      O[i] = X[i] * " + lit() + ";\n"
                   "  }\n}\n\n";
    vec_output("o" + id_);
    call("o" + id_ + ", X, n, n / " + num(2, 5));
  }

  void disjunctive_guard() {
    parts_.defs += pure_ + "float g" + id_ + "(float v) {\n"
                   "  return " + lit() + " * v - " + lit() + ";\n}\n\n"
                   "void k" + id_ + "(float* O, float* X, int n, int m) {\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    if (i < m || i > m + " + num(2, 9) + ")\n"
                   "      O[i] = g" + id_ + "(X[i]);\n"
                   "    else\n"
                   "      O[i] = 0.0f;\n"
                   "  }\n}\n\n";
    vec_output("o" + id_);
    call("o" + id_ + ", X, n, n / " + num(2, 5));
  }

  void imperfect_nest() {
    parts_.defs += pure_ + "float h" + id_ + "(float v, int j) {\n"
                   "  return v * (float)(j + " + num(1, 5) + ") + " + lit() +
                   ";\n}\n\n"
                   "void k" + id_ + "(float* S, float** M, int r) {\n"
                   "  for (int i = 0; i < r; i++) {\n"
                   "    S[i] = 0.0f;\n"
                   "    for (int j = 0; j < r; j++)\n"
                   "      S[i] = S[i] + h" + id_ + "(M[i][j], j);\n"
                   "    S[i] = S[i] * " + lit() + ";\n"
                   "  }\n}\n\n";
    vec_output("o" + id_);
    call("o" + id_ + ", M, r");
  }

  void while_loop() {
    parts_.defs += pure_ + "float b" + id_ + "(float u, float v) {\n"
                   "  return " + lit() + " * u + " + lit() + " * v;\n}\n\n"
                   "void k" + id_ + "(float* O, float* X, float* Y, int n) {\n"
                   "  int i = 0;\n"
                   "  while (i < n) {\n"
                   "    O[i] = b" + id_ + "(X[i], Y[i]);\n"
                   "    i = i + 1;\n"
                   "  }\n}\n\n";
    vec_output("o" + id_);
    call("o" + id_ + ", X, Y, n");
  }

  void strided() {
    const bool annotated = !pure_.empty();
    parts_.defs += pure_ + "float a" + id_ + "(" +
                   (annotated ? "pure " : "") + "float* a, int j) {\n"
                   "  return " + lit() + " * (a[j] + a[j + 1]);\n}\n\n"
                   "void k" + id_ + "(float* O, float* X, int n) {\n"
                   "  for (int i = " + num(0, 1) + "; i < n; i += 2)\n"
                   "    O[i] = a" + id_ + "(" +
                   (annotated ? "(pure float*)X" : "X") + ", i);\n}\n\n";
    vec_output("o" + id_);
    call("o" + id_ + ", X, n");
  }

  void int_reduction() {
    parts_.defs += pure_ + "int w" + id_ + "(int v) {\n"
                   "  return (v % " + num(3, 11) + ") * " + num(1, 7) +
                   " + 1;\n}\n\n"
                   "void k" + id_ + "(int* R, int* IV, int n) {\n"
                   "  int total = 0;\n"
                   "  for (int i = 0; i < n; i++)\n"
                   "    total = total + w" + id_ + "(IV[i]);\n"
                   "  R[0] = total;\n}\n\n";
    parts_.allocs += "  int* q" + id_ + " = (int*)malloc(1 * sizeof(int));\n"
                     "  q" + id_ + "[0] = 0;\n";
    parts_.sums += "  checksum = checksum + (double)q" + id_ + "[0];\n";
    call("q" + id_ + ", IV, n");
  }

  void private_temporary() {
    parts_.defs += pure_ + "float h" + id_ + "(float v) {\n"
                   "  return " + lit() + " * v;\n}\n\n"
                   "void k" + id_ +
                   "(float** P, float* X, float* Y, int r) {\n"
                   "  float t;\n"
                   "  for (int i = 0; i < r; i++) {\n"
                   "    t = h" + id_ + "(X[i]);\n"
                   "    for (int j = 0; j < r; j++)\n"
                   "      P[i][j] = t * Y[j];\n"
                   "  }\n}\n\n";
    grid_output("p" + id_);
    call("p" + id_ + ", X, Y, r");
  }

  void fusible_siblings() {
    parts_.defs += pure_ + "float s" + id_ + "(float x) {\n"
                   "  return " + lit() + " * x;\n}\n\n" +
                   pure_ + "float u" + id_ + "(float x) {\n"
                   "  return x + " + lit() + ";\n}\n\n"
                   "void k" + id_ +
                   "(float* O1, float* O2, float* X, int n) {\n"
                   "  for (int i = 0; i < n; i++)\n"
                   "    O1[i] = s" + id_ + "(X[i]);\n"
                   "  for (int j = 0; j < n; j++)\n"
                   "    O2[j] = u" + id_ + "(X[j]);\n}\n\n";
    vec_output("o" + id_);
    vec_output("v" + id_);
    call("o" + id_ + ", v" + id_ + ", X, n");
  }

  void fission_candidate() {
    parts_.defs += pure_ + "float d" + id_ + "(float x) {\n"
                   "  return " + lit() + " * x;\n}\n\n"
                   "void k" + id_ +
                   "(float* A, float* O, float* X, int n) {\n"
                   "  A[0] = X[0];\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    if (i > 0)\n"
                   "      A[i] = A[i - 1] + X[i];\n"
                   "    O[i] = d" + id_ + "(X[i]);\n"
                   "  }\n}\n\n";
    vec_output("o" + id_);
    vec_output("v" + id_);
    call("o" + id_ + ", v" + id_ + ", X, n");
  }

  void nonaffine_subscript() {
    parts_.defs += pure_ + "float e" + id_ + "(float x) {\n"
                   "  return x * " + lit() + ";\n}\n\n"
                   "void k" + id_ +
                   "(float* O, float* X, int* IV, int n) {\n"
                   "  for (int i = 0; i < n; i++)\n"
                   "    O[i] = X[IV[i]] * " + lit() + " + e" + id_ +
                   "(X[i]);\n}\n\n";
    vec_output("o" + id_);
    call("o" + id_ + ", X, IV, n");
  }

  void impure_call() {
    parts_.defs += "int tally" + id_ + ";\n\n"
                   "float note" + id_ + "(float v) {\n"
                   "  tally" + id_ + " = tally" + id_ + " + 1;\n"
                   "  return v * " + lit() + ";\n}\n\n"
                   "void k" + id_ + "(float* O, float* X, int n) {\n"
                   "  for (int i = 0; i < n; i++)\n"
                   "    O[i] = note" + id_ + "(X[i]);\n}\n\n";
    vec_output("o" + id_);
    parts_.sums += "  checksum = checksum + (double)tally" + id_ + ";\n";
    call("o" + id_ + ", X, n");
  }

  Parts& parts_;
  SeedRng& rng_;
  std::string id_;
  std::string pure_;
};

constexpr const char* kPrologue = R"(#include <stdio.h>
#include <stdlib.h>

float* alloc_vec(int n) {
  float* v = (float*)malloc((n + 8) * sizeof(float));
  for (int i = 0; i < n + 8; i++) v[i] = 0.0f;
  return v;
}

float** alloc_grid(int r) {
  float** g = (float**)malloc(r * sizeof(float*));
  for (int i = 0; i < r; i++) {
    g[i] = (float*)malloc(r * sizeof(float));
    for (int j = 0; j < r; j++) g[i][j] = 0.0f;
  }
  return g;
}

double sum_vec(float* v, int n, int w) {
  double s = 0.0;
  for (int i = 0; i < n; i++) s = s + (double)v[i] * ((i + w) % 7);
  return s;
}

double sum_grid(float** g, int r, int w) {
  double s = 0.0;
  for (int i = 0; i < r; i++)
    for (int j = 0; j < r; j++) s = s + (double)g[i][j] * ((i + j + w) % 5);
  return s;
}

)";

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view salt) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : salt) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return SeedRng(seed ^ h).next();
}

std::string generate_tu(std::uint64_t seed, std::size_t kernels) {
  const std::size_t count =
      std::max<std::size_t>(1, (kernels + kKernelKinds - 1) / kKernelKinds) *
      kKernelKinds;
  SeedRng rng(derive_seed(seed, "compile_tu"));

  // Fixed kind mix, seeded order; exactly half of the kernels annotated.
  std::vector<std::size_t> kinds(count);
  std::vector<char> annotated(count);
  for (std::size_t i = 0; i < count; ++i) {
    kinds[i] = i % kKernelKinds;
    annotated[i] = i < count / 2 ? 1 : 0;
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.next() % i]);
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(annotated[i - 1], annotated[rng.next() % i]);
  }

  Parts parts;
  for (std::size_t i = 0; i < count; ++i) {
    KernelWriter(parts, rng, i, annotated[i] != 0).write(kinds[i]);
  }

  std::string out = kPrologue;
  out += parts.defs;
  out += "int main(int argc, char** argv) {\n"
         "  if (argc != 4) return 2;\n"
         "  int n = atoi(argv[1]);\n"
         "  int r = atoi(argv[2]);\n"
         "  int reps = atoi(argv[3]);\n"
         "  if (r > n) return 2;\n"
         "  float* X = alloc_vec(n);\n"
         "  float* Y = alloc_vec(n);\n"
         "  int* IV = (int*)malloc(n * sizeof(int));\n"
         "  float** M = alloc_grid(r);\n"
         "  for (int i = 0; i < n + 8; i++) {\n"
         "    X[i] = (float)((i * " + std::to_string(rng.range(3, 41)) +
         " + " + std::to_string(rng.range(0, 28)) + ") % 29);\n"
         "    Y[i] = (float)((i * " + std::to_string(rng.range(3, 41)) +
         " + " + std::to_string(rng.range(0, 30)) + ") % 31) * 0.5f;\n"
         "  }\n"
         "  for (int i = 0; i < n; i++)\n"
         "    IV[i] = (i * " + std::to_string(rng.range(3, 97)) + " + " +
         std::to_string(rng.range(0, 97)) + ") % n;\n"
         "  for (int i = 0; i < r; i++)\n"
         "    for (int j = 0; j < r; j++)\n"
         "      M[i][j] = (float)((i * " + std::to_string(rng.range(3, 19)) +
         " + j * " + std::to_string(rng.range(3, 19)) +
         ") % 23) * 0.25f;\n";
  out += parts.allocs;
  out += "  for (int rep = 0; rep < reps; rep++) {\n";
  out += parts.calls;
  out += "  }\n  double checksum = 0.0;\n";
  out += parts.sums;
  out += "  printf(\"checksum %.6f\\n\", checksum);\n  return 0;\n}\n";
  return out;
}

}  // namespace purec::e2e
