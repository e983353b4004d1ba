// The structured optimization report: one JSON document carrying the
// chain's entire decision trail — per-function purity verdicts (declared /
// inferred / inferable / rejected, with reasons and source locations),
// per-scop extraction outcomes (shape, dependences, reductions and their
// demotions, chosen schedule, failure reasons with line/column),
// memoizability verdicts, canonicalized whiles, inliner and instrument
// decisions.
//
// `purecc --report` and `--report=json[:FILE]` are two renderers over the
// same structure: build_chain_report() assembles the document once, then
// either dump() serializes it or render_report_text() reproduces the
// historical stderr format line for line. Tests pin both, so a decision
// added to the chain that is missing here fails goldens instead of
// silently vanishing from the report.
#pragma once

#include <string>

#include "support/json.h"
#include "transform/pure_chain.h"

namespace purec {

/// Assembles the full decision trail of a finished chain run. A rejected
/// run (`ok` false) reports what the chain reached, such as the purity
/// verdicts, plus an `errors` array of its diagnostics (line, column,
/// severity, pass, message); accepted runs carry no `errors` key.
[[nodiscard]] json::Value build_chain_report(const ChainArtifacts& artifacts,
                                             const ChainOptions& options);

/// Renders the classic `--report` stderr text from the JSON structure
/// (every line prefixed "purecc: " exactly as the CLI always printed it).
[[nodiscard]] std::string render_report_text(const json::Value& report);

}  // namespace purec
