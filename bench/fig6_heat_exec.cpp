// Figure 6: execution time of the heat-distribution application.
//
// Expected shape (paper §4.3.2): the inlined PluTo version beats the pure
// chain (per-point function-call overhead: 87.8G vs 47.5G instructions);
// both flatten past ~8 cores (memory-bound stencil); GCC/ICC differences
// small.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/heat.h"
#include "bench_common.h"

namespace {

using purec::apps::Compiler;
using purec::apps::HeatConfig;
using purec::apps::HeatVariant;
using purec::apps::run_heat;

HeatConfig config(Compiler compiler) {
  HeatConfig c;
  if (purec::bench::full_scale()) {
    c.n = 4096;
    c.steps = 200;
  }
  c.compiler = compiler;
  return c;
}

double run_variant(HeatVariant variant, Compiler compiler, int threads) {
  return run_heat(variant, config(compiler), threads).compute_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const double gcc_seq =
      run_heat(HeatVariant::Sequential, config(Compiler::Gcc), 1)
          .compute_seconds;
  const double icc_seq =
      run_heat(HeatVariant::Sequential, config(Compiler::Icc), 1)
          .compute_seconds;
  std::printf("fig6: sequential GCC %.3f s / ICC-proxy %.3f s "
              "(paper: 34.14 s / 31.32 s at n=4096, 200 steps)\n",
              gcc_seq, icc_seq);

  purec::bench::register_series("fig6_heat_exec", "pure_gcc", [](int t) {
    return run_variant(HeatVariant::Pure, Compiler::Gcc, t);
  });
  purec::bench::register_series("fig6_heat_exec", "pure_icc", [](int t) {
    return run_variant(HeatVariant::Pure, Compiler::Icc, t);
  });
  purec::bench::register_series("fig6_heat_exec", "pluto_sica_gcc",
                                [](int t) {
    return run_variant(HeatVariant::Pluto, Compiler::Gcc, t);
  });
  purec::bench::register_series("fig6_heat_exec", "pluto_sica_icc",
                                [](int t) {
    return run_variant(HeatVariant::Pluto, Compiler::Icc, t);
  });

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
