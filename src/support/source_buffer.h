// Owning container for one translation unit's text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/source_location.h"

namespace purec {

/// Immutable source text plus a line-offset index. All string_views handed
/// out by the lexer point into this buffer, so a SourceBuffer must outlive
/// every token and AST node derived from it.
class SourceBuffer {
 public:
  SourceBuffer(std::string name, std::string text);

  static SourceBuffer from_string(std::string text,
                                  std::string name = "<string>");

  [[nodiscard]] std::string_view text() const noexcept { return text_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return text_.size(); }

  /// Number of lines (a trailing newline does not start a new line).
  [[nodiscard]] std::uint32_t line_count() const noexcept;

  /// The text of 1-based line `line` without its newline, or nullopt if out
  /// of range.
  [[nodiscard]] std::optional<std::string_view> line(
      std::uint32_t line) const;

  /// Full location (line/column) for a byte offset; offsets past the end
  /// clamp to the end of the buffer.
  [[nodiscard]] SourceLocation location_for_offset(
      std::uint32_t offset) const;

 private:
  std::string name_;
  std::string text_;
  std::vector<std::uint32_t> line_offsets_;  // offset of each line start
};

}  // namespace purec
