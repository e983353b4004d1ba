// Figure 9: speedup of the satellite filter (Tseq/Tpar). Expected:
// continuous speedup for all versions as cores grow (the paper's
// best case is the auto-generated code at 64 cores).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/satellite.h"
#include "bench_common.h"

namespace {

using purec::apps::SatelliteConfig;
using purec::apps::SatelliteVariant;
using purec::apps::run_satellite;

SatelliteConfig config() {
  SatelliteConfig c;
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

  const double seq_seconds =
      run_satellite(SatelliteVariant::Sequential, config(), 1)
          .compute_seconds;
  std::printf("fig9: Tseq = %.3f s\n", seq_seconds);

  const auto add = [&](const char* name, SatelliteVariant variant) {
    purec::bench::register_speedup_series(
        "fig9_satellite_speedup", name, seq_seconds,
        [variant](int t) { return run_variant(variant, t); });
  };
  add("auto_static", SatelliteVariant::AutoStatic);
  add("auto_dynamic", SatelliteVariant::AutoDynamic);
  add("hand_dynamic", SatelliteVariant::HandDynamic);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
