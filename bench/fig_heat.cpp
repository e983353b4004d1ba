// Figures 6-7: the heat distribution (paper §4.3.2), execution time and
// speedup against the GCC Sequential build (the `speedup` counter). Series
// time the sweeps only, after the Sequential init.
//
// Series and the kernel configuration they run (bench/CMakeLists.txt):
//   pure_gcc         purecc output of heat.c: the stencil stays a call
//   pluto_gcc        purecc --mode pluto --tile 32 of heat_nest.c, the
//                    inlined sweep standalone PluTo is given
//   pluto_sica_gcc   the same with --mode sica (a simd inner loop)
//   *_icc            the same emitted C built with the ICC-proxy flags
//
// Expected shape: the inlined PluTo versions beat the pure chain (the
// per-point call: 87.8G vs 47.5G instructions in the paper); all flatten
// past ~8 cores (memory-bound stencil).
#include <cstdio>

#include "bench_common.h"

using HeatSweeps = double (*)(float**, float**, int, int);

extern "C" {
double heat_seq_init(float**, float**, int);
double heat_seq_compute(float**, float**, int, int);
double heat_seq_checksum(float**, int);
double heat_pure_compute(float**, float**, int, int);
double heat_pure_icc_compute(float**, float**, int, int);
double heat_pluto_compute(float**, float**, int, int);
double heat_pluto_icc_compute(float**, float**, int, int);
double heat_sica_compute(float**, float**, int, int);
double heat_sica_icc_compute(float**, float**, int, int);
}

int main(int argc, char** argv) {
  using purec::bench::Match;
  using purec::bench::Run;
  benchmark::Initialize(&argc, argv);

  const int n = purec::bench::scaled_size(4096, 1024, 101);
  const int steps = purec::bench::scaled_size(200, 50, 5);
  const auto sweeps = [n, steps](HeatSweeps compute) {
    return [=] {
      purec::bench::Rows cur(n), nxt(n);
      heat_seq_init(cur.data(), nxt.data(), n);
      const double seconds = compute(cur.data(), nxt.data(), n, steps);
      // Each sweep swaps the grids: an odd count leaves the result in nxt.
      float** result = steps % 2 == 0 ? cur.data() : nxt.data();
      return Run{seconds, heat_seq_checksum(result, n)};
    };
  };

  const Run seq = sweeps(heat_seq_compute)();
  std::printf("fig_heat: sequential GCC baseline = %.3f s (paper: 34.14 s "
              "at n=4096, 200 steps)\n",
              seq.seconds);

  const struct {
    const char* name;
    HeatSweeps compute;
    Match match;
  } series[] = {
      {"pure_gcc", heat_pure_compute, Match::Exact},
      {"pure_icc", heat_pure_icc_compute, Match::FastMath},
      {"pluto_gcc", heat_pluto_compute, Match::Exact},
      {"pluto_icc", heat_pluto_icc_compute, Match::FastMath},
      {"pluto_sica_gcc", heat_sica_compute, Match::Exact},
      {"pluto_sica_icc", heat_sica_icc_compute, Match::FastMath},
  };
  for (const auto& s : series) {
    purec::bench::register_series("fig_heat", s.name, seq, s.match,
                                  sweeps(s.compute));
  }
  return purec::bench::run_benchmarks();
}
