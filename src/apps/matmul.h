// Application 1 (§4.3.1): matrix-matrix multiplication with a pure dot
// product. Every variant the paper measures is implemented as the exact
// loop/call structure its compiler chain would produce:
//
//   Sequential     — the untransformed program (dot called per element)
//   Pure           — the pure chain's output: parallel outer loop, dot()
//                    stays a function call; the allocation loop is ALSO
//                    parallelized (malloc is in the hashset, §4.3.1)
//   PureNoInit     — same, with the init loop manually kept sequential
//                    (the black bars of Fig. 3)
//   Pluto          — standalone PluTo: dot inlined, loop nest tiled,
//                    parallel outer tile loop
//   PlutoSica      — PluTo-SICA: inlined + tiled + vectorized inner loop
//   MklProxy       — hand-tuned blocked kernel playing Intel MKL's role
//
// Compiler::Icc selects the vectorized ("ICC auto-vectorizes the extracted
// dot function") build of the same structure.
#pragma once

#include "apps/common.h"

namespace purec::apps {

enum class MatmulVariant {
  Sequential,
  Pure,
  PureNoInit,
  Pluto,
  PlutoSica,
  MklProxy,
};

struct MatmulConfig {
  int n = 896;          // paper: 4096 (env PUREC_FULL=1 in the benches)
  int tile = 64;        // PluTo tile size
  Compiler compiler = Compiler::Gcc;
};

/// Runs one variant on `threads` OpenMP threads (Sequential ignores it).
/// Deterministic inputs; the checksum is identical across variants (tests
/// assert this).
[[nodiscard]] RunResult run_matmul(MatmulVariant variant,
                                   const MatmulConfig& config, int threads);

[[nodiscard]] const char* to_string(MatmulVariant variant) noexcept;

}  // namespace purec::apps
