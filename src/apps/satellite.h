// Application 3 (§4.3.3): satellite image processing — aerosol optical
// depth (AOD) retrieval from hyperspectral observations.
//
// Substitution: the MODIS/Aqua scene is replaced by a synthetic hyperspectral
// cube whose per-pixel retrieval cost is data-dependent (an iterative
// refinement whose trip count depends on the pixel's "aerosol" content) and
// spatially skewed: late image regions are systematically more expensive.
// That reproduces the paper's observed "unbalanced behavior in the later
// program phases" which static OpenMP scheduling handles poorly and
// `schedule(dynamic,1)` fixes.
//
// Variants:
//   Sequential  — one thread
//   AutoStatic  — the chain's raw output: parallel pixel loop, static
//   AutoDynamic — chain output manually extended with schedule(dynamic,1)
//                 (the paper's adaptation)
//   HandDynamic — hand-written OpenMP port (dynamic + slightly larger
//                 chunk, the "internal knowledge" version)
#pragma once

#include "apps/common.h"

namespace purec::apps {

enum class SatelliteVariant {
  Sequential,
  AutoStatic,
  AutoDynamic,
  HandDynamic,
};

struct SatelliteConfig {
  int width = 512;    // paper scene: MODIS granule (~1354x2030)
  int height = 512;
  int bands = 8;
  Compiler compiler = Compiler::Gcc;
};

/// Runs one variant on `threads` OpenMP threads (Sequential ignores it).
[[nodiscard]] RunResult run_satellite(SatelliteVariant variant,
                                      const SatelliteConfig& config,
                                      int threads);

[[nodiscard]] const char* to_string(SatelliteVariant variant) noexcept;

}  // namespace purec::apps
