// Figures 10-11: the LAMA ELL sparse matrix-vector product (paper §4.3.4),
// execution time and speedup against the GCC Sequential build (the
// `speedup` counter). Series time the SpMV repetitions only, after the
// Sequential init.
//
// Series and the kernel configuration they run (bench/CMakeLists.txt):
//   pure_auto_gcc   purecc output of ell.c: parallel row loop, the row
//                   dot stays a call
//   hand_gcc        ell_hand.c, the manually parallelized LAMA loop with
//                   the dot inlined (no chain produces it)
//   *_icc           the same C built with the ICC-proxy flags
//
// Expected shape: the hand loop is slightly ahead (the sparse tail makes
// the static row partition uneven); the gap shrinks with more cores.
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

using EllSpmv = double (*)(float*, int*, float*, float*, int, int, int);

extern "C" {
double ell_seq_init(int, int, float**, int**, float**, float**, int*);
double ell_seq_compute(float*, int*, float*, float*, int, int, int);
double ell_seq_checksum(float*, int);
double ell_pure_compute(float*, int*, float*, float*, int, int, int);
double ell_pure_icc_compute(float*, int*, float*, float*, int, int, int);
double ell_hand_compute(float*, int*, float*, float*, int, int, int);
double ell_hand_icc_compute(float*, int*, float*, float*, int, int, int);
}

namespace {

/// The operands ell_seq_init allocates.
struct Ell {
  float* values = nullptr;
  int* cols = nullptr;
  float* x = nullptr;
  float* y = nullptr;
  int width = 0;

  Ell() = default;
  Ell(const Ell&) = delete;
  Ell& operator=(const Ell&) = delete;
  ~Ell() {
    std::free(values);
    std::free(cols);
    std::free(x);
    std::free(y);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using purec::bench::Match;
  using purec::bench::Run;
  benchmark::Initialize(&argc, argv);

  const int rows = purec::bench::scaled_size(217918 /* Boeing/pwtk */,
                                             120000, 7919);
  const int avg_nnz = purec::bench::scaled_size(53, 53, 16);
  const int reps = purec::bench::scaled_size(100, 50, 5);
  const auto spmv = [=](EllSpmv compute) {
    return [=] {
      Ell m;
      ell_seq_init(rows, avg_nnz, &m.values, &m.cols, &m.x, &m.y, &m.width);
      const double seconds =
          compute(m.values, m.cols, m.x, m.y, rows, m.width, reps);
      return Run{seconds, ell_seq_checksum(m.y, rows)};
    };
  };

  const Run seq = spmv(ell_seq_compute)();
  std::printf("fig_lama: sequential baseline = %.3f s\n", seq.seconds);

  const struct {
    const char* name;
    EllSpmv compute;
    Match match;
  } series[] = {
      {"pure_auto_gcc", ell_pure_compute, Match::Exact},
      {"pure_auto_icc", ell_pure_icc_compute, Match::FastMath},
      {"hand_gcc", ell_hand_compute, Match::Exact},
      {"hand_icc", ell_hand_icc_compute, Match::FastMath},
  };
  for (const auto& s : series) {
    purec::bench::register_series("fig_lama", s.name, seq, s.match,
                                  spmv(s.compute));
  }
  return purec::bench::run_benchmarks();
}
