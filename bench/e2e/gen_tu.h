// Seeded generator for the compile_tu workload: one C translation unit of
// K kernels that exercises every purecc layer — classic perfect nests,
// affine and disjunctive guards, imperfect nests, while loops, strides,
// integer reductions, privatizable temporaries, fusible siblings, fission
// candidates, and nests that must stay serial (non-affine subscripts,
// impure calls). Half the kernels use the `pure` keyword and half are
// keyword-free, so `purecc --infer-pure` has to infer the rest.
//
// The kind mix is fixed by K; the seed shuffles kernel order, picks which
// kernels are annotated, and draws every constant. The same seed always
// yields byte-identical source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace purec::e2e {

/// splitmix64: small, fast, and identical on every platform (unlike the
/// standard distributions), so seeded inputs never depend on the library.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (hi - lo is small; modulo bias is irrelevant).
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// A sub-seed for one named consumer (a program, the TU), so adding a
/// consumer never shifts the inputs of another.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::string_view salt);

/// Number of distinct kernel kinds; the kernel count is rounded up to a
/// multiple of it so every kind appears equally often.
inline constexpr std::size_t kKernelKinds = 12;

/// The generated program reads `n r reps` from argv: the 1-D length, the
/// 2-D order, and how many times main calls every kernel. It prints
/// `checksum <v>`; every reduction it parallelizes is an integer fold.
[[nodiscard]] std::string generate_tu(std::uint64_t seed,
                                      std::size_t kernels);

}  // namespace purec::e2e
