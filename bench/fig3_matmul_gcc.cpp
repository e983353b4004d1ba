// Figure 3: execution time of the matrix-matrix multiplication, GCC chain.
// Series: seq (dashed line in the paper), pure, pure_noinit (black bars),
// pluto, pluto_sica, mkl_proxy.
//
// Expected shape (paper §4.3.1): pure < pluto (the accidentally
// parallelized malloc/init loop), pure_noinit ~= pluto, pluto_sica and
// mkl_proxy fastest, MKL far ahead of all automatic versions.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/matmul.h"
#include "bench_common.h"

namespace {

using purec::apps::Compiler;
using purec::apps::MatmulConfig;
using purec::apps::MatmulVariant;
using purec::apps::run_matmul;

MatmulConfig config() {
  MatmulConfig c;
  c.n = purec::bench::scaled_size(4096, 896, 256);
  c.compiler = Compiler::Gcc;
  return c;
}

double run_variant(MatmulVariant variant, int threads) {
  // The paper measures whole-application time, which is why the
  // init-loop parallelization shows up in Fig. 3 at all.
  return run_matmul(variant, config(), threads).total_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  // The dashed sequential-baseline line of Fig. 3.
  const double seq =
      run_matmul(MatmulVariant::Sequential, config(), 1).total_seconds();
  std::printf("fig3: sequential GCC baseline = %.3f s (paper: 22.17 s at "
              "n=4096)\n",
              seq);

  purec::bench::register_series("fig3_matmul_gcc", "pure", [](int t) {
    return run_variant(MatmulVariant::Pure, t);
  });
  purec::bench::register_series("fig3_matmul_gcc", "pure_noinit", [](int t) {
    return run_variant(MatmulVariant::PureNoInit, t);
  });
  purec::bench::register_series("fig3_matmul_gcc", "pluto", [](int t) {
    return run_variant(MatmulVariant::Pluto, t);
  });
  purec::bench::register_series("fig3_matmul_gcc", "pluto_sica", [](int t) {
    return run_variant(MatmulVariant::PlutoSica, t);
  });
  purec::bench::register_series("fig3_matmul_gcc", "mkl_proxy", [](int t) {
    return run_variant(MatmulVariant::MklProxy, t);
  });

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
