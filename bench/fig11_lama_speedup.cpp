// Figure 11: speedup of the LAMA ELL SpMV (Tseq/Tpar). Expected:
// increasing up to 32 cores; ICC-proxy better below 16 cores, worse
// above; hand vs. auto nearly indistinguishable at high core counts.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/ellpack.h"
#include "bench_common.h"

namespace {

using purec::apps::Compiler;
using purec::apps::EllConfig;
using purec::apps::EllVariant;
using purec::apps::run_ell;

EllConfig config(Compiler compiler) {
  EllConfig c;
  c.rows = purec::bench::scaled_size(217918 /* Boeing/pwtk */, c.rows, 8000);
  c.avg_row_nnz = purec::bench::scaled_size(53, c.avg_row_nnz, 16);
  c.repetitions = purec::bench::scaled_size(100, c.repetitions, 5);
  c.compiler = compiler;
  return c;
}

double run_variant(EllVariant variant, Compiler compiler, int threads) {
  return run_ell(variant, config(compiler), threads).compute_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const double seq_seconds =
      run_ell(EllVariant::Sequential, config(Compiler::Gcc), 1)
          .compute_seconds;
  std::printf("fig11: Tseq (GCC) = %.3f s\n", seq_seconds);

  const auto add = [&](const char* name, EllVariant variant,
                       Compiler compiler) {
    purec::bench::register_speedup_series(
        "fig11_lama_speedup", name, seq_seconds,
        [variant, compiler](int t) {
          return run_variant(variant, compiler, t);
        });
  };
  add("pure_auto_gcc", EllVariant::PureAuto, Compiler::Gcc);
  add("pure_auto_icc", EllVariant::PureAuto, Compiler::Icc);
  add("hand_gcc", EllVariant::HandStatic, Compiler::Gcc);
  add("hand_icc", EllVariant::HandStatic, Compiler::Icc);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
