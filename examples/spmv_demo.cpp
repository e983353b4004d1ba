// Domain example 3: the LAMA ELL SpMV (§4.3.4). The row dot product does
// indirect addressing — hopeless for a polyhedral tool — but marking it
// pure lets the chain parallelize the row loop. Compares the chain's
// output with the hand-parallelized LAMA loop.
#include <cstdio>

#include "apps/ellpack.h"
#include "transform/pure_chain.h"

int main() {
  using namespace purec::apps;

  const char* source =
      "pure float ell_row_dot(pure float* values, pure int* cols,\n"
      "                       pure float* x, int row, int rows, int width);\n"
      "void ell_spmv(float* values, int* cols, float* x, float* y,\n"
      "              int rows, int width) {\n"
      "  for (int i = 0; i < rows; i++)\n"
      "    y[i] = ell_row_dot((pure float*)values, (pure int*)cols,\n"
      "                       (pure float*)x, i, rows, width);\n"
      "}\n";
  purec::ChainArtifacts artifacts = purec::run_pure_chain(source);
  if (!artifacts.ok) {
    std::fputs(artifacts.diagnostics.format().c_str(), stderr);
    return 1;
  }
  std::printf("generated SpMV loop:\n%s\n", artifacts.transformed.c_str());

  EllConfig config;
  config.rows = 60000;
  config.repetitions = 20;

  const RunResult seq = run_ell(EllVariant::Sequential, config, 1);
  std::printf("sequential: %8.1f ms (checksum %.3f)\n\n",
              seq.compute_seconds * 1e3, seq.checksum);

  std::printf("%-10s%16s%16s\n", "threads", "pure(auto)", "hand(LAMA)");
  for (int threads : {2, 4, 8, 16}) {
    const RunResult a = run_ell(EllVariant::PureAuto, config, threads);
    const RunResult h = run_ell(EllVariant::HandStatic, config, threads);
    std::printf("%-10d%13.1f ms%13.1f ms\n", threads,
                a.compute_seconds * 1e3, h.compute_seconds * 1e3);
  }
  std::printf(
      "\nBoth partition rows statically; the hand version knows the nnz\n"
      "tail and inlines the dot — a small, core-count-shrinking edge\n"
      "(paper §4.3.4: at most 8e-4 s difference).\n");
  return 0;
}
