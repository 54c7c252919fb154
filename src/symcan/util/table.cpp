#include "symcan/util/table.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace symcan {

template <typename Range>
void TextTable::Cells::add_row(const Range& cells) {
  for (const auto& c : cells) {
    text.append(c);
    cell_end.push_back(text.size());
  }
  row_end.push_back(cell_end.size());
}

void TextTable::Cells::clear() {
  text.clear();
  cell_end.clear();
  row_end.clear();
}

void TextTable::header(std::initializer_list<std::string_view> cells) {
  header_.clear();
  header_.add_row(cells);
}

void TextTable::header(const std::vector<std::string>& cells) {
  header_.clear();
  header_.add_row(cells);
}

void TextTable::row(std::initializer_list<std::string_view> cells) { body_.add_row(cells); }

void TextTable::row(const std::vector<std::string>& cells) { body_.add_row(cells); }

void TextTable::append_to(std::string& out) const {
  // Column widths over the header and every row.
  std::vector<std::size_t> width;
  const auto widen = [&](const Cells& c) {
    std::size_t first = 0, start = 0;
    for (const std::size_t last : c.row_end) {
      if (last - first > width.size()) width.resize(last - first, 0);
      for (std::size_t k = first; k < last; ++k) {
        width[k - first] = std::max(width[k - first], c.cell_end[k] - start);
        start = c.cell_end[k];
      }
      first = last;
    }
  };
  // An empty header row is no header: nothing is printed for it.
  const bool has_header = !header_.cell_end.empty();
  if (has_header) widen(header_);
  widen(body_);

  const auto emit = [&](const Cells& c) {
    std::size_t first = 0, start = 0;
    for (const std::size_t last : c.row_end) {
      for (std::size_t k = first; k < last; ++k) {
        const std::size_t len = c.cell_end[k] - start;
        out.append(c.text, start, len);
        if (k + 1 < last) out.append(width[k - first] - len + 2, ' ');
        start = c.cell_end[k];
      }
      out += '\n';
      first = last;
    }
  };
  if (has_header) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < width.size(); ++i) total += width[i] + (i + 1 < width.size() ? 2 : 0);
    out.append(total, '-');
    out += '\n';
  }
  emit(body_);
}

void TextTable::print(std::ostream& os) const {
  std::string out;
  append_to(out);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string ascii_bar(double value, double maxv, int width) {
  if (maxv <= 0 || width <= 0) return {};
  double frac = value / maxv;
  frac = std::clamp(frac, 0.0, 1.0);
  const int n = static_cast<int>(frac * width + 0.5);
  return std::string(static_cast<std::size_t>(n), '#');
}

}  // namespace symcan
