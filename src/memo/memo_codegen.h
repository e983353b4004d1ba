// Emission half of the `--memoize` subsystem: the self-contained C
// implementation of the per-thread memo tables (prepended to the output
// like poly::codegen_prelude), and per-function thunk text.
//
// A memoizable call site `f(a, b)` is rewritten to `purec_memo_f(a, b)`;
// the thunk asks its per-thread gate whether the table has been paying
// (calling `f` directly when it has not), then packs the argument bit
// patterns and the scalar global-read snapshot into 64-bit key words,
// folds them into one 64-bit fingerprint with one mix per word, probes
// the table, and only falls through to the real `f` on a miss. Values
// travel as bit patterns, so a hit returns exactly the bits a miss
// stored — memoized and unmemoized binaries print identical checksums.
//
// Layout in the final C file (see run_pure_chain):
//   [system includes]  [codegen prelude]  [memo runtime]
//   [thunk prototypes] [lowered program]  [thunk definitions]
// Prototypes precede the program (call sites inside it), definitions
// follow it (they reference the wrapped functions and the globals).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "memo/memoizable.h"

namespace purec {

/// The per-thread memo tables in plain C: the bytes of
/// runtime/c/purec_memo.h, embedded at configure time. With `stats` they
/// follow `#define PUREC_MEMO_STATS 1` and need stats_sink_snippet()
/// earlier in the same file; without, the counters' block is cut out.
[[nodiscard]] const std::string& memo_runtime_prelude(bool stats);

/// "purec_memo_" + fn. The prefix is reserved: user identifiers never
/// collide (the mini dialect has no way to spell it accidentally without
/// deliberately opting into the namespace).
[[nodiscard]] std::string memo_thunk_name(const std::string& function);

/// Stable 64-bit id mixed into every key so two functions with equal
/// argument tuples cannot alias (FNV-1a over the name).
[[nodiscard]] std::uint64_t memo_function_id(const std::string& function);

/// Words in the thunk's packed key tuple: one per 64-bit argument or
/// snapshot global, one per two narrower ones. A verify record must hold
/// the widest tuple of its TU.
[[nodiscard]] std::size_t memo_key_words(const MemoFunctionInfo& info);

[[nodiscard]] std::string memo_thunk_prototype(const MemoFunctionInfo& info);
/// The thunk; with `stats` (PUREC_MEMO_STATS 1 in the runtime) also its
/// counter entry, the entry's registrar and the counting statements.
[[nodiscard]] std::string memo_thunk_definition(const MemoFunctionInfo& info,
                                                bool stats);

}  // namespace purec
