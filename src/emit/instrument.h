// --instrument: self-contained runtime observability for the emitted C.
//
// The chain wraps every parallelized scop in a timing envelope and plants
// a per-worker tally in each parallel loop body; the snippets below supply
// the counters and the exit-time sink. Everything is plain C with GCC
// __atomic builtins, so the output stays dependency-free.
//
// Counter design follows the per-CPU pattern (McKenney): one cache-line-
// padded cell per worker, bumped with a relaxed __atomic add. The hot-path
// cost is bounded — one padded add per claimed outer iteration, one
// clock_gettime pair per region execution — and there is no lock anywhere.
//
// Each region's constructor-time registrar links it into one id-ordered
// list, so any number of regions reach the dump. The atexit sink writes a
// human summary (invocations, total wall time, per-worker tallies) to the
// shared stats stream (purec_stats_out(): PUREC_STATS_FILE or stderr).
// Under PUREC_TRACE=FILE it instead writes Chrome trace-event JSON — one
// "X" duration event per region execution plus one "C" counter event per
// region carrying the per-worker chunk tallies — loadable in
// chrome://tracing or Perfetto. The "X" events are the only per-execution
// latency record; `purecc trace` derives the percentiles from them.
#pragma once

#include <cstddef>
#include <string>

#include "ast/stmt.h"

namespace purec {

/// The shared stats-stream resolver (purec_stats_out): PUREC_STATS_FILE
/// names an append-mode destination, unset/unopenable falls back to
/// stderr. Emitted once whenever any runtime subsystem (memo stats,
/// --instrument) dumps at exit, so their lines share one stream and never
/// interleave with program stdout. The bytes of
/// runtime/c/purec_stats_sink.h.
[[nodiscard]] const std::string& stats_sink_snippet();

/// The counter structs, clock helpers, trace buffer and atexit dump: the
/// bytes of runtime/c/purec_instr.h. Requires stats_sink_snippet()
/// earlier in the same file.
[[nodiscard]] const std::string& instrument_runtime_snippet();

/// Definition + constructor-time registration of region `index` named
/// `name` ("function:line" of the parallelized nest).
[[nodiscard]] std::string instrument_region_definition(std::size_t index,
                                                       const std::string& name);

/// Rewrites a parallelized nest in place: prepends a per-worker chunk tally
/// to the body of every `#pragma omp parallel for` loop, then wraps the
/// whole nest in `{ t0 = now(); nest; region_done(&rN, t0); }`.
void instrument_region(StmtPtr& nest, std::size_t index);

}  // namespace purec
