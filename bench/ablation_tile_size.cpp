// Ablation: PluTo tile-size choice (§4.3). Sweeps purecc's --tile for the
// inlined matmul nest (--mode pluto, one kernel object per tile edge) at
// the top of the thread ladder — the cache-blocking design choice
// PluTo-SICA's "extensive cache usage" claim rests on. Series time the
// product after the Sequential init. Also measures the compiler chain
// itself (source-to-source cost).
#include <string>

#include "bench_common.h"
#include "transform/pure_chain.h"

using MatmulPhase = double (*)(float**, float**, float**, int);

extern "C" {
double matmul_seq_init(float**, float**, float**, int);
double matmul_seq_compute(float**, float**, float**, int);
double matmul_seq_checksum(float**, int);
double matmul_tile8_compute(float**, float**, float**, int);
double matmul_tile16_compute(float**, float**, float**, int);
double matmul_tile32_compute(float**, float**, float**, int);
double matmul_tile64_compute(float**, float**, float**, int);
double matmul_tile128_compute(float**, float**, float**, int);
double matmul_tile256_compute(float**, float**, float**, int);
}

namespace {

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

int main(int argc, char** argv) {
  using purec::bench::Run;
  benchmark::Initialize(&argc, argv);

  const int n = purec::bench::scaled_size(2048, 896, 101);
  const auto product = [n](MatmulPhase compute) {
    return [=] {
      purec::bench::Rows a(n), bt(n), c(n);
      matmul_seq_init(a.data(), bt.data(), c.data(), n);
      const double seconds = compute(a.data(), bt.data(), c.data(), n);
      return Run{seconds, matmul_seq_checksum(c.data(), n)};
    };
  };

  const Run seq = product(matmul_seq_compute)();
  const struct {
    int tile;
    MatmulPhase compute;
  } tiles[] = {
      {8, matmul_tile8_compute},     {16, matmul_tile16_compute},
      {32, matmul_tile32_compute},   {64, matmul_tile64_compute},
      {128, matmul_tile128_compute}, {256, matmul_tile256_compute},
  };
  const int top = purec::bench::thread_ladder().back();
  for (const auto& t : tiles) {
    purec::bench::register_series(
        "ablation_tile_size", "tile:" + std::to_string(t.tile), seq,
        purec::bench::Match::Exact, product(t.compute), {top});
  }
  return purec::bench::run_benchmarks();
}
