// Runs one child process at a time and times it: wall time with
// std::chrono::steady_clock around fork/exec/wait4, CPU time from the
// rusage wait4 returns. Every child runs in its own process group under a
// timeout; on expiry the whole group is killed and reaped before
// run_child returns, so no descendant outlives its sample.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace purec::e2e {

struct ChildSpec {
  std::vector<std::string> argv;  // argv[0] is looked up on PATH
  /// Variables set on top of the scrubbed parent environment (inherited
  /// OMP_*, GOMP_* and PUREC_* are removed so only these knobs apply).
  std::vector<std::pair<std::string, std::string>> env;
  std::string stdout_path;  // empty = /dev/null
  std::string stderr_path;  // empty = /dev/null
  /// Files the child appends to, removed before it starts so every run
  /// (a retake too) begins from none.
  std::vector<std::string> fresh_paths;
  double timeout_s = 60.0;
};

struct ChildResult {
  bool started = false;
  bool timed_out = false;
  int exit_code = -1;  // -1 when the child died from a signal
  int signal = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // user + system
  /// CPU time the hypervisor took from this machine (all CPUs) while the
  /// child ran, at /proc/stat tick granularity.
  double steal_ms = 0.0;

  [[nodiscard]] bool ok() const {
    return started && !timed_out && exit_code == 0;
  }
  /// "exit 1", "signal 11", "timeout", "spawn failed".
  [[nodiscard]] std::string describe() const;
};

/// Makes this process the reaper of its orphaned descendants, so a child
/// killed on timeout cannot leave grandchildren (cc1, as, ld) unreaped.
/// Call once before the first run_child.
void become_subreaper();

[[nodiscard]] ChildResult run_child(const ChildSpec& spec);

}  // namespace purec::e2e
