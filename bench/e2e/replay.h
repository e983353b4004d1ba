// The traced compile replay: runs one program's compile in-process twice —
// once through run_pure_chain (the real chain, for its wall time and the
// ChainArtifacts counts) and once layer by layer through each layer's
// public entry point, in run_pure_chain's order, with a span around every
// call. The spans live in the benchmark (nothing is added to the
// compiler); the chain's time minus the replayed spans is the glue the
// chain spends between layers (fusion trials, privatization and escape
// checks, call reinsertion, intermediate prints).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/json.h"
#include "transform/pure_chain.h"

namespace purec::e2e {

struct Span {
  std::string name;
  std::string program;
  double start_us = 0.0;  // since the recorder's origin
  double dur_us = 0.0;
  int parent = -1;  // index into the recorder's spans; -1 for a root
  /// False for a layer the replay times although the chain would skip it
  /// under this program's flags (memo classification without --memoize);
  /// such spans are left out of the glue arithmetic.
  bool in_chain = true;
};

/// Spans kept in memory and written out once, as a Chrome trace, when the
/// benchmark ends.
class SpanRecorder {
 public:
  int open(std::string name, const std::string& program,
           bool in_chain = true);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event array: one "X" event per span, with the parent
  /// index and the self time (duration minus child spans) in args.
  [[nodiscard]] json::Value chrome_trace() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// What the compile produced, per layer. Identical across two compiles of
/// one source when the compiler is deterministic.
struct LayerCounts {
  std::size_t tokens = 0;
  std::size_t functions = 0;
  std::size_t inferred_pure = 0;
  std::size_t scop_candidates = 0;
  std::size_t extracted = 0;
  std::size_t dependences = 0;
  std::size_t parallel_loops = 0;
  std::size_t fissioned = 0;
  std::size_t thunks = 0;
  std::size_t emitted_bytes = 0;

  bool operator==(const LayerCounts&) const = default;
};

struct ReplayResult {
  bool ok = false;
  std::string error;
  double chain_ms = 0.0;
  /// Replayed span time per layer name ("parser", "polyhedral.extract").
  std::map<std::string, double> layer_ms;
  /// chain_ms minus the replayed spans of layers the chain runs.
  double glue_ms = 0.0;
  LayerCounts counts;
};

/// The ChainOptions purecc builds from the flags the workloads use;
/// nullopt (with *error set) for a flag the replay does not model.
[[nodiscard]] std::optional<ChainOptions> chain_options_for(
    const std::vector<std::string>& flags, std::string* error);

/// One chain run plus one layer-by-layer replay of `source`.
[[nodiscard]] ReplayResult replay_program(const std::string& program,
                                          const std::string& source,
                                          const ChainOptions& options,
                                          SpanRecorder& spans);

}  // namespace purec::e2e
