// PC-PrePro / PC-PosPro (paper Fig. 1): system includes are removed before
// the chain runs (the AntLR-based pass cannot digest system headers) and
// re-inserted verbatim afterwards.
#pragma once

#include <string>
#include <vector>

namespace purec {

struct StrippedSource {
  std::string text;                          // source without system includes
  std::vector<std::string> system_includes;  // removed lines, original order
};

/// Removes every `#include <...>` line. `#include "..."` lines are left in
/// place for the (mini) preprocessor to resolve, exactly like the paper's
/// chain leaves user includes to GCC-E.
[[nodiscard]] StrippedSource strip_system_includes(const std::string& source);

/// PC-PosPro: puts the removed includes back at the top of the file (the
/// paper re-adds them before the final GCC compile). `extra_includes` lets
/// the chain append e.g. `#include <omp.h>`; one naming a header the
/// source already includes is skipped.
[[nodiscard]] std::string restore_system_includes(
    const std::string& source,
    const std::vector<std::string>& system_includes,
    const std::vector<std::string>& extra_includes = {});

}  // namespace purec
