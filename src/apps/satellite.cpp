#include "apps/satellite.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace purec::apps {

namespace {

/// Synthetic hyperspectral cube, band-major: bands[b][y*w + x].
struct Cube {
  int width = 0;
  int height = 0;
  int bands = 0;
  std::vector<float> data;  // bands * height * width
  std::vector<float> aod;   // height * width output

  [[nodiscard]] const float* band(int b) const {
    return data.data() +
           static_cast<std::size_t>(b) * height * width;
  }
};

double init_cube(Cube& cube, const SatelliteConfig& config) {
  Timer timer;
  cube.width = config.width;
  cube.height = config.height;
  cube.bands = config.bands;
  cube.data.resize(static_cast<std::size_t>(config.bands) * config.height *
                   config.width);
  cube.aod.assign(
      static_cast<std::size_t>(config.height) * config.width, 0.0f);
  Rng rng(0x5eedULL);
  for (int b = 0; b < config.bands; ++b) {
    float* plane = cube.data.data() +
                   static_cast<std::size_t>(b) * config.height * config.width;
    for (int y = 0; y < config.height; ++y) {
      for (int x = 0; x < config.width; ++x) {
        // Reflectance-like values; a smooth "haze" gradient grows towards
        // the bottom of the scene so late rows carry more aerosol signal
        // (the paper's late-phase imbalance).
        const float base = rng.next_float(0.05f, 0.6f);
        const float haze =
            0.35f * static_cast<float>(y) / static_cast<float>(config.height);
        plane[static_cast<std::size_t>(y) * config.width + x] = base + haze;
      }
    }
  }
  return timer.seconds();
}

/// The per-pixel retrieval: an iterative lookup-table refinement in the
/// style of Wang et al. (the paper's AOD method). The loop count depends
/// on the pixel's spectral content — several hundred flops for clear
/// pixels, a few thousand for hazy ones. PUREC_NOINLINE: this is the
/// complex pure function the chain leaves as a call.
PUREC_NOINLINE float retrieve_aod(const float* cube, int bands, int stride,
                                  int pixel) {
  // Spectral aggregate drives the refinement depth.
  float signal = 0.0f;
  for (int b = 0; b < bands; ++b) {
    signal += cube[static_cast<std::size_t>(b) * stride + pixel];
  }
  signal /= static_cast<float>(bands);

  // Dynamic conditional iteration count (this is what breaks static
  // dependence analysis of the function body).
  int refinements = 24 + static_cast<int>(signal * 220.0f);
  if (signal > 0.55f) refinements *= 3;

  float tau = 0.1f;
  for (int r = 0; r < refinements; ++r) {
    float residual = 0.0f;
    for (int b = 0; b < bands; ++b) {
      const float obs = cube[static_cast<std::size_t>(b) * stride + pixel];
      // Toy radiative-transfer model: exponential attenuation per band.
      const float modeled = obs * (1.0f - std::exp(-tau * (1.0f + 0.1f * b)));
      residual += obs - modeled;
    }
    tau += 0.001f * residual;
    if (residual < 1e-4f && residual > -1e-4f) break;
  }
  return tau;
}

void process_range(const Cube& cube, float* out, std::int64_t begin,
                   std::int64_t end) {
  const int stride = cube.width * cube.height;
  for (std::int64_t p = begin; p < end; ++p) {
    out[p] = retrieve_aod(cube.data.data(), cube.bands, stride,
                          static_cast<int>(p));
  }
}

/// schedule(dynamic,1) over blocks of `block_rows` scene rows: the claim
/// granularity of the AutoDynamic (1 row) and HandDynamic (4 rows) ports.
void process_blocks_dynamic(const Cube& cube, float* out, int block_rows,
                            int threads) {
  const std::int64_t block = std::int64_t{block_rows} * cube.width;
  const std::int64_t pixels = std::int64_t{cube.width} * cube.height;
  const std::int64_t blocks = (pixels + block - 1) / block;
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
  for (std::int64_t b = 0; b < blocks; ++b) {
    process_range(cube, out, b * block, std::min(b * block + block, pixels));
  }
}

[[nodiscard]] double checksum(const Cube& cube) {
  double sum = 0.0;
  for (std::size_t i = 0; i < cube.aod.size(); ++i) {
    sum += static_cast<double>(cube.aod[i]) * (1 + (i % 5));
  }
  return sum;
}

}  // namespace

const char* to_string(SatelliteVariant variant) noexcept {
  switch (variant) {
    case SatelliteVariant::Sequential: return "seq";
    case SatelliteVariant::AutoStatic: return "auto_static";
    case SatelliteVariant::AutoDynamic: return "auto_dynamic";
    case SatelliteVariant::HandDynamic: return "hand_dynamic";
  }
  return "?";
}

RunResult run_satellite(SatelliteVariant variant,
                        const SatelliteConfig& config, int threads) {
  RunResult result;
  Cube cube;
  result.init_seconds = init_cube(cube, config);
  const std::int64_t pixels =
      static_cast<std::int64_t>(config.width) * config.height;
  float* out = cube.aod.data();

  Timer timer;
  switch (variant) {
    case SatelliteVariant::Sequential:
      process_range(cube, out, 0, pixels);
      break;
    case SatelliteVariant::AutoStatic:
      // The chain's raw output: static partition of the pixel loop.
#pragma omp parallel for num_threads(threads) schedule(static)
      for (std::int64_t p = 0; p < pixels; ++p) {
        process_range(cube, out, p, p + 1);
      }
      break;
    case SatelliteVariant::AutoDynamic:
      // schedule(dynamic,1) over rows — the paper's manual fix of the
      // generated pragma.
      process_blocks_dynamic(cube, out, 1, threads);
      break;
    case SatelliteVariant::HandDynamic:
      // Hand-tuned: dynamic with a 4-row chunk (less queue contention).
      process_blocks_dynamic(cube, out, 4, threads);
      break;
  }
  result.compute_seconds = timer.seconds();
  result.checksum = checksum(cube);
  return result;
}

}  // namespace purec::apps
