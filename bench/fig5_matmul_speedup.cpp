// Figure 5: speedup of the matrix-matrix multiplication —
// Speedup = Tseq(GCC) / Tpar, exactly the paper's definition (the GCC
// sequential run is the baseline for ALL series, including ICC ones).
//
// Expected shape: MKL proxy far ahead (paper: 37.44x already at 2 cores,
// 72.16x at 64); pluto_sica > pure/pluto; pure_icc strong at low counts
// then converging.
#include <benchmark/benchmark.h>

#include <cstdio>

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

  const double seq_seconds =
      run_matmul(MatmulVariant::Sequential, config(Compiler::Gcc), 1)
          .total_seconds();
  std::printf("fig5: Tseq (GCC) = %.3f s — speedups below are Tseq/Tpar\n",
              seq_seconds);

  const auto add = [&](const char* name, MatmulVariant variant,
                       Compiler compiler) {
    purec::bench::register_speedup_series(
        "fig5_matmul_speedup", name, seq_seconds,
        [variant, compiler](int t) {
          return run_variant(variant, compiler, t);
        });
  };
  add("pure_gcc", MatmulVariant::Pure, Compiler::Gcc);
  add("pure_icc", MatmulVariant::Pure, Compiler::Icc);
  add("pluto_gcc", MatmulVariant::Pluto, Compiler::Gcc);
  add("pluto_sica_gcc", MatmulVariant::PlutoSica, Compiler::Gcc);
  add("mkl_proxy", MatmulVariant::MklProxy, Compiler::Icc);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
