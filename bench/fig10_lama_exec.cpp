// Figure 10: execution time of the LAMA ELL sparse matrix-vector multiply.
//
// Expected shape (paper §4.3.4): the hand-parallelized (inlined, static)
// version is slightly ahead of the pure chain's output (the tail of the
// matrix makes the static row partition uneven and the chain does not
// know the nnz distribution); the gap shrinks as cores increase, and the
// absolute differences are tiny.
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

  std::printf("fig10: sequential baseline = %.3f s\n",
              run_ell(EllVariant::Sequential, config(Compiler::Gcc), 1)
                  .compute_seconds);

  purec::bench::register_series("fig10_lama_exec", "pure_auto_gcc",
                                [](int t) {
    return run_variant(EllVariant::PureAuto, Compiler::Gcc, t);
  });
  purec::bench::register_series("fig10_lama_exec", "pure_auto_icc",
                                [](int t) {
    return run_variant(EllVariant::PureAuto, Compiler::Icc, t);
  });
  purec::bench::register_series("fig10_lama_exec", "hand_gcc", [](int t) {
    return run_variant(EllVariant::HandStatic, Compiler::Gcc, t);
  });
  purec::bench::register_series("fig10_lama_exec", "hand_icc", [](int t) {
    return run_variant(EllVariant::HandStatic, Compiler::Icc, t);
  });

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
