// Ablation for the §4.3.1 anecdote: isolates the matmul *initialization*
// (the malloc/fill loop) and measures it sequential vs. parallelized —
// the hidden difference that made `pure` beat plain PluTo in Fig. 3.
// Series report the init phase only.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/matmul.h"
#include "bench_common.h"

namespace {

using purec::apps::MatmulConfig;
using purec::apps::MatmulVariant;
using purec::apps::run_matmul;

MatmulConfig config() {
  MatmulConfig c;
  c.n = purec::bench::scaled_size(4096, 1536, 256);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  purec::bench::register_series(
      "ablation_init", "init_parallel(pure)", [](int t) {
        // Pure = chain output with the accidentally-parallel init loop.
        return run_matmul(MatmulVariant::Pure, config(), t).init_seconds;
      });
  purec::bench::register_series(
      "ablation_init", "init_sequential(pluto)", [](int t) {
        return run_matmul(MatmulVariant::PureNoInit, config(), t)
            .init_seconds;
      });

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
