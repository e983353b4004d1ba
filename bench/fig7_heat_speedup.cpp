// Figure 7: speedup of the heat-distribution application
// (Tseq(GCC)/Tpar). Expected: PluTo best up to ~16 threads, all series'
// speedups decay beyond 8 cores (the stencil's memory accesses defeat
// vectorization, §4.3.2).
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

  const double seq_seconds =
      run_heat(HeatVariant::Sequential, config(Compiler::Gcc), 1)
          .compute_seconds;
  std::printf("fig7: Tseq (GCC) = %.3f s\n", seq_seconds);

  const auto add = [&](const char* name, HeatVariant variant,
                       Compiler compiler) {
    purec::bench::register_speedup_series(
        "fig7_heat_speedup", name, seq_seconds,
        [variant, compiler](int t) {
          return run_variant(variant, compiler, t);
        });
  };
  add("pure_gcc", HeatVariant::Pure, Compiler::Gcc);
  add("pure_icc", HeatVariant::Pure, Compiler::Icc);
  add("pluto_gcc", HeatVariant::Pluto, Compiler::Gcc);
  add("pluto_icc", HeatVariant::Pluto, Compiler::Icc);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
