// purec::rt::trace — per-chunk event streaming from the C++ runtime, the
// twin of the emitted-C --instrument Chrome trace writer.
//
// Compile-time default OFF, exactly like purec::rt::stats: every hook
// below is an if-constexpr over kEnabled, so the production runtime pays
// zero instructions unless a translation unit is built with
// -DPUREC_RT_TRACE=1 (the runtime_trace test target and the traced half
// of bench/trace_overhead do exactly that). When compiled in, recording
// additionally requires the PUREC_RT_TRACE environment variable to name a
// file — the same spelling doubles as macro (compile gate) and env knob
// (runtime destination), mirroring how PUREC_RT_STATS gates the counters
// and PUREC_STATS_FILE routes their dump.
//
// Event storage is a fixed-capacity ring per worker, each on its own
// cache line, written only by the worker that owns it (the per-CPU
// pattern) — recording is a relaxed cursor bump plus a POD store, no lock
// and no shared line anywhere. When a ring fills, further events are
// counted, not stored, and the dump emits the dropped count.
//
// The dump writes the same Chrome trace-event schema as the emitted-C
// instrument runtime — a JSON array of event objects, cooperatively
// appended (see dump()) so that a mixed binary (runtime twin + emitted
// --instrument C) pointing PUREC_RT_TRACE and PUREC_TRACE at one path
// produces a single Chrome-loadable timeline: emitted-C regions on pid 1,
// runtime workers on pid 2, metadata ("M") events naming both.
//
// The storage and dump live in trace.cpp and are always compiled, so
// mixed builds (traced test objects linking the plain runtime archive)
// link cleanly either way; rings are heap-allocated on first activation,
// so binaries that never trace never pay the footprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "runtime/stats.h"

#ifndef PUREC_RT_TRACE
#define PUREC_RT_TRACE 0
#endif

namespace purec::rt::trace {

inline constexpr bool kEnabled = PUREC_RT_TRACE != 0;
inline constexpr std::size_t kMaxWorkers = stats::kMaxWorkers;
/// Events retained per worker; claims past this are dropped and counted.
inline constexpr std::size_t kRingCapacity = 4096;
/// Region names registerable via set_region_name.
inline constexpr std::size_t kMaxRegionNames = 256;
/// The runtime twin's pid in the merged timeline (the emitted-C
/// instrument runtime is pid 1).
inline constexpr int kTracePid = 2;

enum class EventKind : std::uint8_t {
  Region,       ///< one for_each_chunk launch (X, cat "region")
  Chunk,        ///< one claimed chunk (X, cat "chunk", args begin/end)
  Steal,        ///< a chunk claimed from a victim's range (instant)
  BarrierSpin,  ///< wait_for_change resolved in the spin window (X)
  BarrierPark,  ///< wait_for_change entered the kernel (X)
};

struct Event {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t arg0 = 0;  ///< chunk begin / victim worker
  std::int64_t arg1 = 0;  ///< chunk end
  std::uint32_t region_id = 0;
  EventKind kind = EventKind::Region;
};

/// True when tracing is compiled in AND the PUREC_RT_TRACE environment
/// variable names a destination file. Cached after the first call; the
/// atexit dump is registered on the first true answer. Call sites must
/// still gate on kEnabled so the check itself compiles out.
[[nodiscard]] bool active() noexcept;

/// Appends an event to `worker`'s ring (drop-and-count when full). Only
/// meaningful while active(); safe (a no-op) otherwise.
void record(std::size_t worker, EventKind kind, std::uint64_t begin_ns,
            std::uint64_t end_ns, std::uint32_t region_id = 0,
            std::int64_t arg0 = 0, std::int64_t arg1 = 0) noexcept;

/// Labels region `id` in the dumped timeline (benches register the same
/// stable ids the compile-time report carries). Unregistered ids render
/// as "region <id>".
void set_region_name(std::uint32_t id, const char* name) noexcept;

/// Writes every recorded event to the PUREC_RT_TRACE path and clears the
/// rings. The write is a *cooperative append*: an existing trace array at
/// the path (for example the emitted-C instrument dump's) is reopened,
/// its closing bracket replaced by a comma, and the new events spliced in
/// before a fresh closing bracket — so any number of sequential dumps to
/// one path still form one valid, Chrome-loadable JSON array. A no-op
/// when inactive or when no events were recorded.
void dump();

/// dump() into an already-open stream (tests): always writes a complete
/// `[...]` array, including metadata events; does not clear the rings.
void write_events(std::FILE* out);

/// Clears rings, dropped counts, and cursors (test isolation).
void reset() noexcept;

/// Test/bench hook: re-resolves activation with `path` standing in for
/// the PUREC_RT_TRACE environment variable (nullptr = deactivate).
void set_path_for_testing(const char* path);

}  // namespace purec::rt::trace
