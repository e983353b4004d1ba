// Ablation: PluTo tile-size choice (§4.3). Sweeps the tile edge for the
// tiled matmul at the top of the thread ladder — the cache-blocking
// design choice PluTo-SICA's "extensive cache usage" claim rests on.
// Also measures the compiler chain itself (source-to-source cost).
#include <benchmark/benchmark.h>

#include "apps/matmul.h"
#include "bench_common.h"
#include "transform/pure_chain.h"

namespace {

using purec::apps::MatmulConfig;
using purec::apps::MatmulVariant;
using purec::apps::run_matmul;

void BM_tile_size(benchmark::State& state) {
  MatmulConfig config;
  config.n = purec::bench::scaled_size(2048, 896, 256);
  config.tile = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(purec::bench::thread_ladder().back());
  for (auto _ : state) {
    const auto r = run_matmul(MatmulVariant::Pluto, config, threads);
    state.SetIterationTime(r.compute_seconds);
    benchmark::DoNotOptimize(r.checksum);
  }
}
BENCHMARK(BM_tile_size)
    ->ArgName("tile")
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// The chain's own cost: full source-to-source run on the matmul listing.
void BM_chain_end_to_end(benchmark::State& state) {
  const char* src =
      "float **A, **Bt, **C;\n"
      "pure float mult(float a, float b) { return a * b; }\n"
      "pure float dot(pure float* a, pure float* b, int size) {\n"
      "  float res = 0.0f;\n"
      "  for (int i = 0; i < size; ++i) res += mult(a[i], b[i]);\n"
      "  return res;\n"
      "}\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; ++i)\n"
      "    for (int j = 0; j < n; ++j)\n"
      "      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);\n"
      "}\n";
  for (auto _ : state) {
    purec::ChainArtifacts a = purec::run_pure_chain(src);
    benchmark::DoNotOptimize(a.final_source.data());
  }
}
BENCHMARK(BM_chain_end_to_end)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
