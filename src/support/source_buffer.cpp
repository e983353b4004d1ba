#include "support/source_buffer.h"

#include <algorithm>
#include <utility>

namespace purec {

std::string to_string(const SourceLocation& loc) {
  if (!loc.valid()) return "<unknown>";
  return std::to_string(loc.line) + ":" + std::to_string(loc.column);
}

SourceBuffer::SourceBuffer(std::string name, std::string text)
    : name_(std::move(name)), text_(std::move(text)) {
  line_offsets_.push_back(0);
  for (std::uint32_t i = 0; i < text_.size(); ++i) {
    if (text_[i] == '\n' && i + 1 < text_.size()) {
      line_offsets_.push_back(i + 1);
    }
  }
}

SourceBuffer SourceBuffer::from_string(std::string text, std::string name) {
  return SourceBuffer(std::move(name), std::move(text));
}

std::uint32_t SourceBuffer::line_count() const noexcept {
  if (text_.empty()) return 0;
  return static_cast<std::uint32_t>(line_offsets_.size());
}

std::optional<std::string_view> SourceBuffer::line(std::uint32_t line) const {
  if (line == 0 || line > line_count()) return std::nullopt;
  const std::uint32_t begin = line_offsets_[line - 1];
  std::uint32_t end = (line < line_offsets_.size())
                          ? line_offsets_[line]
                          : static_cast<std::uint32_t>(text_.size());
  std::string_view sv(text_.data() + begin, end - begin);
  while (!sv.empty() && (sv.back() == '\n' || sv.back() == '\r')) {
    sv.remove_suffix(1);
  }
  return sv;
}

SourceLocation SourceBuffer::location_for_offset(std::uint32_t offset) const {
  offset = std::min<std::uint32_t>(offset,
                                   static_cast<std::uint32_t>(text_.size()));
  auto it = std::upper_bound(line_offsets_.begin(), line_offsets_.end(),
                             offset);
  const auto line_index =
      static_cast<std::uint32_t>(std::distance(line_offsets_.begin(), it));
  const std::uint32_t line_begin = line_offsets_[line_index - 1];
  return SourceLocation{line_index, offset - line_begin + 1, offset};
}

}  // namespace purec
