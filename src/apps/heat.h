// Application 2 (§4.3.2): iterative heat distribution on a point-heated
// plate. Two-grid Jacobi; the temperature of each cell becomes the average
// of its four neighbours, one corner cell is held hot.
//
// Variants mirror the paper:
//   Sequential — stencil as a function call, one thread
//   Pure       — the chain's output: parallel row loop, the stencil STAYS
//                a function call (the call overhead is why PluTo beats
//                Pure here: 87.8G vs 47.5G instructions, §4.3.2)
//   Pluto      — stencil inlined, tiled, parallel (PluTo == PluTo-SICA for
//                this code; vectorization does not pay, §4.3.2)
//
// Compiler::Icc vectorizes the per-row kernels (the modest ICC edge of
// Fig. 6/7).
#pragma once

#include "apps/common.h"

namespace purec::apps {

enum class HeatVariant {
  Sequential,
  Pure,
  Pluto,
};

struct HeatConfig {
  int n = 1024;      // paper: 4096
  int steps = 50;    // paper: 200
  int tile = 64;
  Compiler compiler = Compiler::Gcc;
};

/// Runs one variant on `threads` OpenMP threads (Sequential ignores it).
[[nodiscard]] RunResult run_heat(HeatVariant variant,
                                 const HeatConfig& config, int threads);

[[nodiscard]] const char* to_string(HeatVariant variant) noexcept;

}  // namespace purec::apps
