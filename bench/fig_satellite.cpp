// Figures 8-9: the satellite image filter, AOD retrieval (paper §4.3.3),
// execution time and speedup against the Sequential build (the `speedup`
// counter). Only the pure chain can parallelize this code — the
// retrieval is far beyond polyhedral analysis — hence no PluTo series.
// Series time the retrieval only, after the Sequential init.
//
// Series and the purecc configuration of satellite.c they run:
//   auto_static    default purecc: the chain's raw output
//   auto_dynamic   --schedule dynamic,1: the paper's manual fix of the
//                  generated pragma
//   hand_dynamic   --schedule dynamic,4: the hand port's larger chunk
//
// Expected shape: good scaling everywhere; the static schedule suffers
// from the late-scene imbalance and the dynamic schedules repair it.
#include <cstdio>

#include "bench_common.h"

using SatelliteRetrieval = double (*)(float**, float**, int, int, int);

extern "C" {
double satellite_seq_init(float**, float**, int, int, int);
double satellite_seq_compute(float**, float**, int, int, int);
double satellite_seq_checksum(float**, int, int);
double satellite_static_compute(float**, float**, int, int, int);
double satellite_dynamic_compute(float**, float**, int, int, int);
double satellite_hand_compute(float**, float**, int, int, int);
}

int main(int argc, char** argv) {
  using purec::bench::Match;
  using purec::bench::Run;
  benchmark::Initialize(&argc, argv);

  // full: a MODIS granule (cross-track x along-track).
  const int width = purec::bench::scaled_size(1354, 512, 97);
  const int height = purec::bench::scaled_size(2030, 512, 83);
  const int bands = purec::bench::scaled_size(8, 8, 4);
  const auto retrieval = [=](SatelliteRetrieval compute) {
    return [=] {
      purec::bench::Rows planes(bands), aod(height);
      satellite_seq_init(planes.data(), aod.data(), bands, width, height);
      const double seconds =
          compute(planes.data(), aod.data(), bands, width, height);
      return Run{seconds, satellite_seq_checksum(aod.data(), width, height)};
    };
  };

  const Run seq = retrieval(satellite_seq_compute)();
  std::printf("fig_satellite: sequential baseline = %.3f s\n", seq.seconds);

  const struct {
    const char* name;
    SatelliteRetrieval compute;
  } series[] = {
      {"auto_static", satellite_static_compute},
      {"auto_dynamic", satellite_dynamic_compute},
      {"hand_dynamic", satellite_hand_compute},
  };
  for (const auto& s : series) {
    purec::bench::register_series("fig_satellite", s.name, seq, Match::Exact,
                                  retrieval(s.compute));
  }
  return purec::bench::run_benchmarks();
}
