// The benchmark's five workloads: which C programs go through
// purecc -> gcc -fopenmp -> run, with which purecc flags and which argv.
// Sizes are fixed per workload; the seed only draws the data initializers
// passed on argv (and, for compile_tu, the generated translation unit), so
// run time does not depend on the seed while the inputs do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace purec::e2e {

struct ProgramSpec {
  std::string name;
  /// File under programs/; empty for the generated compile_tu source.
  std::string source_file;
  std::vector<std::string> purecc_flags;
  std::vector<std::string> args;
};

struct WorkloadSpec {
  std::string name;
  std::vector<ProgramSpec> programs;
  /// compile_tu: kernels in the generated TU (0 for the other workloads).
  std::size_t tu_kernels = 0;
};

/// Smoke sizes keep every workload to a fraction of a second of run time;
/// they exercise the whole path, not performance.
enum class Scale { Full, Smoke };

[[nodiscard]] const std::vector<std::string>& workload_names();

[[nodiscard]] std::optional<WorkloadSpec> make_workload(
    std::string_view name, std::uint64_t seed, Scale scale);

}  // namespace purec::e2e
