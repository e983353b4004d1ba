// Ablation for the §4.3.1 anecdote: isolates the matmul *initialization*
// (the malloc/fill loop) and times it as purecc emits it (parallelized,
// since malloc counts as pure) against the Sequential build — the hidden
// difference that made `pure` beat plain PluTo in Fig. 3. Series report
// the init phase only; the checksum covers the filled operands.
#include "bench_common.h"

using MatmulPhase = double (*)(float**, float**, float**, int);

extern "C" {
double matmul_seq_init(float**, float**, float**, int);
double matmul_seq_checksum(float**, int);
double matmul_pure_init(float**, float**, float**, int);
}

int main(int argc, char** argv) {
  using purec::bench::Match;
  using purec::bench::Run;
  benchmark::Initialize(&argc, argv);

  const int n = purec::bench::scaled_size(4096, 1536, 101);
  const auto init_only = [n](MatmulPhase init) {
    return [=] {
      purec::bench::Rows a(n), bt(n), c(n);
      const double seconds = init(a.data(), bt.data(), c.data(), n);
      return Run{seconds, matmul_seq_checksum(a.data(), n) +
                              matmul_seq_checksum(bt.data(), n)};
    };
  };

  const Run seq = init_only(matmul_seq_init)();
  purec::bench::register_series("ablation_init", "init_parallel(pure)", seq,
                                Match::Exact, init_only(matmul_pure_init));
  purec::bench::register_series("ablation_init", "init_sequential(pluto)",
                                seq, Match::Exact,
                                init_only(matmul_seq_init));
  return purec::bench::run_benchmarks();
}
