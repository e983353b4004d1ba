// Figure 8: execution time of the satellite image filter (AOD retrieval).
//
// Only the pure chain can parallelize this code (the filter function is
// far beyond polyhedral analysis; §4.3.3) — hence no PluTo series.
// Expected shape: good scaling everywhere; static scheduling suffers from
// the late-scene imbalance; schedule(dynamic,1) (the paper's manual
// adaptation) repairs it; the hand-tuned dynamic version leads.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/satellite.h"
#include "bench_common.h"

namespace {

using purec::apps::Compiler;
using purec::apps::SatelliteConfig;
using purec::apps::SatelliteVariant;
using purec::apps::run_satellite;

SatelliteConfig config() {
  SatelliteConfig c;
  // full: MODIS granule (cross-track × along-track); smoke: just enough
  // pixels to exercise the imbalance machinery.
  c.width = purec::bench::scaled_size(1354, c.width, 96);
  c.height = purec::bench::scaled_size(2030, c.height, 96);
  c.bands = purec::bench::scaled_size(8, c.bands, 4);
  return c;
}

double run_variant(SatelliteVariant variant, int threads) {
  return run_satellite(variant, config(), threads).compute_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  std::printf("fig8: sequential baseline = %.3f s\n",
              run_satellite(SatelliteVariant::Sequential, config(), 1)
                  .compute_seconds);

  purec::bench::register_series("fig8_satellite_exec", "auto_static",
                                [](int t) {
    return run_variant(SatelliteVariant::AutoStatic, t);
  });
  purec::bench::register_series("fig8_satellite_exec", "auto_dynamic",
                                [](int t) {
    return run_variant(SatelliteVariant::AutoDynamic, t);
  });
  purec::bench::register_series("fig8_satellite_exec", "hand_dynamic",
                                [](int t) {
    return run_variant(SatelliteVariant::HandDynamic, t);
  });

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
