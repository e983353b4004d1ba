#include "preproc/include_stripper.h"

#include <set>
#include <sstream>

#include "support/string_utils.h"

namespace purec {

namespace {

/// The `<...>` header a system include line names ("# include <a.h>"
/// gives "<a.h>"); empty for any other line.
[[nodiscard]] std::string_view system_header(std::string_view line) {
  std::string_view t = trim(line);
  if (t.empty() || t.front() != '#') return {};
  t.remove_prefix(1);
  t = trim(t);
  if (!starts_with(t, "include")) return {};
  t.remove_prefix(7);
  t = trim(t);
  if (t.empty() || t.front() != '<') return {};
  const std::size_t close = t.find('>');
  return close == std::string_view::npos ? t : t.substr(0, close + 1);
}

}  // namespace

StrippedSource strip_system_includes(const std::string& source) {
  StrippedSource out;
  std::ostringstream kept;
  for (std::string_view line : split_lines(source)) {
    if (!system_header(line).empty()) {
      out.system_includes.emplace_back(line);
      // Keep the line count stable for diagnostics: leave an empty line.
      kept << "\n";
    } else {
      kept << line << "\n";
    }
  }
  out.text = std::move(kept).str();
  return out;
}

std::string restore_system_includes(
    const std::string& source,
    const std::vector<std::string>& system_includes,
    const std::vector<std::string>& extra_includes) {
  std::ostringstream out;
  std::set<std::string_view> headers;
  for (const std::string& inc : system_includes) {
    out << inc << "\n";
    headers.insert(system_header(inc));
  }
  for (const std::string& inc : extra_includes) {
    if (headers.count(system_header(inc)) == 0) out << inc << "\n";
  }
  out << source;
  return std::move(out).str();
}

}  // namespace purec
