// Domain example 1: the paper's headline experiment in miniature.
// Transforms the matmul listing with the chain AND runs all performance
// variants of the kernel at several thread counts, printing a Fig. 3-style
// table.
#include <cstdio>

#include "apps/matmul.h"
#include "transform/pure_chain.h"

int main() {
  using namespace purec::apps;

  // 1. Show what the compiler chain does with the pure source.
  const char* source =
      "float **A, **Bt, **C;\n"
      "pure float mult(float a, float b) { return a * b; }\n"
      "pure float dot(pure float* a, pure float* b, int size) {\n"
      "  float res = 0.0f;\n"
      "  for (int i = 0; i < size; ++i) res += mult(a[i], b[i]);\n"
      "  return res;\n"
      "}\n"
      "void kernel(int n) {\n"
      "  for (int i = 0; i < n; ++i)\n"
      "    for (int j = 0; j < n; ++j)\n"
      "      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);\n"
      "}\n";
  purec::ChainArtifacts artifacts = purec::run_pure_chain(source);
  if (!artifacts.ok) {
    std::fputs(artifacts.diagnostics.format().c_str(), stderr);
    return 1;
  }
  std::printf("generated parallel kernel:\n%s\n",
              artifacts.transformed.c_str());

  // 2. Measure the equivalent variants (shape of Fig. 3).
  MatmulConfig config;
  config.n = 512;
  std::printf("%-12s", "threads");
  for (MatmulVariant v :
       {MatmulVariant::Pure, MatmulVariant::Pluto, MatmulVariant::PlutoSica,
        MatmulVariant::MklProxy}) {
    std::printf("%14s", to_string(v));
  }
  std::printf("\n");
  for (int threads : {1, 2, 4, 8}) {
    std::printf("%-12d", threads);
    for (MatmulVariant v :
         {MatmulVariant::Pure, MatmulVariant::Pluto,
          MatmulVariant::PlutoSica, MatmulVariant::MklProxy}) {
      const RunResult r = run_matmul(v, config, threads);
      std::printf("%11.1f ms", r.total_seconds() * 1e3);
    }
    std::printf("\n");
  }
  return 0;
}
