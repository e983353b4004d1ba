// Domain example 2: the satellite AOD retrieval (§4.3.3). Shows why the
// generated static schedule struggles with the scene's late-phase
// imbalance and how schedule(dynamic,1) — the paper's one-line manual
// adaptation — fixes it.
#include <cstdio>

#include "apps/satellite.h"
#include "transform/pure_chain.h"

int main() {
  using namespace purec::apps;

  // The chain turns the pixel loop into an OpenMP loop even though the
  // filter function is far beyond polyhedral analysis — because the call
  // is pure and gets substituted away.
  const char* source =
      "pure float retrieve_aod(pure float* bands, int nbands, int pixel);\n"
      "void filter(float* bands, float* out, int nbands, int npix) {\n"
      "  for (int p = 0; p < npix; p++)\n"
      "    out[p] = retrieve_aod((pure float*)bands, nbands, p);\n"
      "}\n";
  purec::ChainOptions options;
  options.schedule = {purec::OmpScheduleKind::Dynamic, 1};
  purec::ChainArtifacts artifacts = purec::run_pure_chain(source, options);
  std::printf("generated filter loop:\n%s\n", artifacts.transformed.c_str());

  SatelliteConfig config;
  config.width = 384;
  config.height = 384;
  config.bands = 6;

  const RunResult seq =
      run_satellite(SatelliteVariant::Sequential, config, 1);
  std::printf("sequential: %8.1f ms (checksum %.3f)\n\n",
              seq.compute_seconds * 1e3, seq.checksum);

  std::printf("%-10s%16s%16s%16s\n", "threads", "static", "dynamic(1row)",
              "hand(4rows)");
  for (int threads : {2, 4, 8, 16}) {
    const RunResult st =
        run_satellite(SatelliteVariant::AutoStatic, config, threads);
    const RunResult dy =
        run_satellite(SatelliteVariant::AutoDynamic, config, threads);
    const RunResult hd =
        run_satellite(SatelliteVariant::HandDynamic, config, threads);
    std::printf("%-10d%13.1f ms%13.1f ms%13.1f ms\n", threads,
                st.compute_seconds * 1e3, dy.compute_seconds * 1e3,
                hd.compute_seconds * 1e3);
  }
  std::printf(
      "\nThe static rows split the hazy (expensive) bottom of the scene\n"
      "unevenly; dynamic scheduling keeps all threads busy (paper "
      "§4.3.3).\n");
  return 0;
}
