// Figures 3-5: the matrix-matrix multiplication (paper §4.3.1), execution
// time (Fig. 3: GCC chain, Fig. 4: ICC proxy) and speedup against the GCC
// Sequential build (Fig. 5, the `speedup` counter). Every series times
// the whole application, init + product, which is why the init loop the
// pure chain parallelizes shows up at all.
//
// Series and the kernel configuration they run (bench/CMakeLists.txt):
//   pure            purecc output of matmul.c, its own parallelized init
//   pure_noinit     the same product after the Sequential init (the
//                   black bars of Fig. 3)
//   pluto           purecc --mode pluto --tile 32 of matmul_nest.c, the
//                   inlined nest standalone PluTo is given
//   pluto_sica      the same with --mode sica
//   mkl_proxy       hand-blocked matmul_mkl.c playing Intel MKL's role
//   *_icc           the same emitted C built with the ICC-proxy flags
// Standalone PluTo and MKL transform only the product, so they are
// charged the Sequential init.
//
// Expected shape: pure < pluto (the accidentally parallelized init),
// pure_noinit ~= pluto, pluto_sica and mkl_proxy fastest; pure_icc gains
// at low core counts because the extracted dot() vectorizes.
#include <cstdio>

#include "bench_common.h"

using MatmulPhase = double (*)(float**, float**, float**, int);

extern "C" {
double matmul_seq_init(float**, float**, float**, int);
double matmul_seq_compute(float**, float**, float**, int);
double matmul_seq_checksum(float**, int);
double matmul_pure_init(float**, float**, float**, int);
double matmul_pure_compute(float**, float**, float**, int);
double matmul_pure_icc_init(float**, float**, float**, int);
double matmul_pure_icc_compute(float**, float**, float**, int);
double matmul_pluto_compute(float**, float**, float**, int);
double matmul_pluto_icc_compute(float**, float**, float**, int);
double matmul_sica_compute(float**, float**, float**, int);
double matmul_sica_icc_compute(float**, float**, float**, int);
double matmul_mkl_compute(float**, float**, float**, int);
}

int main(int argc, char** argv) {
  using purec::bench::Match;
  using purec::bench::Run;
  benchmark::Initialize(&argc, argv);

  const int n = purec::bench::scaled_size(4096, 896, 101);
  const auto whole = [n](MatmulPhase init, MatmulPhase compute) {
    return [=] {
      purec::bench::Rows a(n), bt(n), c(n);
      const double seconds = init(a.data(), bt.data(), c.data(), n) +
                             compute(a.data(), bt.data(), c.data(), n);
      return Run{seconds, matmul_seq_checksum(c.data(), n)};
    };
  };

  // The dashed sequential-baseline line of Fig. 3.
  const Run seq = whole(matmul_seq_init, matmul_seq_compute)();
  std::printf("fig_matmul: sequential GCC baseline = %.3f s (paper: "
              "22.17 s at n=4096)\n",
              seq.seconds);

  const struct {
    const char* name;
    MatmulPhase init;
    MatmulPhase compute;
    Match match;
  } series[] = {
      {"pure", matmul_pure_init, matmul_pure_compute, Match::Exact},
      {"pure_noinit", matmul_seq_init, matmul_pure_compute, Match::Exact},
      {"pluto", matmul_seq_init, matmul_pluto_compute, Match::Exact},
      {"pluto_sica", matmul_seq_init, matmul_sica_compute, Match::Exact},
      {"mkl_proxy", matmul_seq_init, matmul_mkl_compute, Match::FastMath},
      {"pure_icc", matmul_pure_icc_init, matmul_pure_icc_compute,
       Match::FastMath},
      {"pluto_icc", matmul_seq_init, matmul_pluto_icc_compute,
       Match::FastMath},
      {"pluto_sica_icc", matmul_seq_init, matmul_sica_icc_compute,
       Match::FastMath},
  };
  for (const auto& s : series) {
    purec::bench::register_series("fig_matmul", s.name, seq, s.match,
                                  whole(s.init, s.compute));
  }
  return purec::bench::run_benchmarks();
}
