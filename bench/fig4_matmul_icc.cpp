// Figure 4: execution time of the matrix-matrix multiplication with the
// ICC proxy (vectorized extracted functions).
//
// Expected shape (paper §4.3.1): `pure` gains a lot at low core counts
// because ICC vectorizes the extracted dot(); pluto/pluto_sica see little
// change ("this automatic vectorization is not carried out when the
// function is inlined"); pure converges towards the GCC-chain numbers for
// >16 cores (memory bound).
#include <benchmark/benchmark.h>

#include "apps/matmul.h"
#include "bench_common.h"

namespace {

using purec::apps::Compiler;
using purec::apps::MatmulConfig;
using purec::apps::MatmulVariant;
using purec::apps::run_matmul;

MatmulConfig config(Compiler compiler) {
  MatmulConfig c;
  c.n = purec::bench::scaled_size(4096, 896, 256);
  c.compiler = compiler;
  return c;
}

double run_variant(MatmulVariant variant, Compiler compiler, int threads) {
  return run_matmul(variant, config(compiler), threads).total_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  purec::bench::register_series("fig4_matmul_icc", "pure_icc", [](int t) {
    return run_variant(MatmulVariant::Pure, Compiler::Icc, t);
  });
  purec::bench::register_series("fig4_matmul_icc", "pluto_icc", [](int t) {
    // The inlined PluTo loop does not benefit from ICC (§4.3.1).
    return run_variant(MatmulVariant::Pluto, Compiler::Icc, t);
  });
  purec::bench::register_series("fig4_matmul_icc", "pluto_sica_icc",
                                [](int t) {
    return run_variant(MatmulVariant::PlutoSica, Compiler::Icc, t);
  });
  purec::bench::register_series("fig4_matmul_icc", "mkl", [](int t) {
    return run_variant(MatmulVariant::MklProxy, Compiler::Icc, t);
  });
  // GCC-chain pure for direct comparison (the convergence above 16 cores).
  purec::bench::register_series("fig4_matmul_icc", "pure_gcc_ref",
                                [](int t) {
    return run_variant(MatmulVariant::Pure, Compiler::Gcc, t);
  });

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
