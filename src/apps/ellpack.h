// Application 4 (§4.3.4): ELL sparse matrix-vector multiplication — the
// standalone LAMA ELLMatrix kernel.
//
// Substitution: the Boeing/pwtk wind-tunnel stiffness matrix (217,918 rows,
// 11.5M nonzeros) is replaced by a synthetic symmetric banded FEM-style
// matrix with the same shape characteristics: ~53 nonzeros/row on average,
// stored column-major in ELL format (values[k * rows + i]), with a sparser
// tail region so "the thread load differs greatly at the end of the program"
// exactly as the paper describes.
//
// Variants:
//   Sequential — one thread, row dot product as a pure-function call
//   PureAuto   — the chain's output: parallel row loop, schedule(static),
//                row dot stays a call
//   HandStatic — the manually parallelized LAMA code:
//                `#pragma omp parallel for schedule(static)` with the dot
//                inlined (what LAMA ships)
#pragma once

#include "apps/common.h"

namespace purec::apps {

enum class EllVariant {
  Sequential,
  PureAuto,
  HandStatic,
};

struct EllConfig {
  int rows = 120000;      // pwtk: 217918 (PUREC_FULL=1)
  int avg_row_nnz = 53;   // pwtk: ~52.9
  Compiler compiler = Compiler::Gcc;
  int repetitions = 50;   // SpMV is too fast to time once
};

/// Runs one variant on `threads` OpenMP threads (Sequential ignores it).
[[nodiscard]] RunResult run_ell(EllVariant variant, const EllConfig& config,
                                int threads);

[[nodiscard]] const char* to_string(EllVariant variant) noexcept;

}  // namespace purec::apps
