#pragma once

// Lightweight aligned-text table printer used by benches and examples to
// render paper-style result tables on stdout, and by the analyze/prob
// stages to render their verdict tables.

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace symcan {

/// Collects rows of string cells and prints them with aligned columns.
///
/// Cells are copied into one flat arena (their text back to back in one
/// string, plus end offsets), so a cell costs no allocation of its own.
class TextTable {
 public:
  /// Set the header row. Resets any previously set header.
  void header(std::initializer_list<std::string_view> cells);
  void header(const std::vector<std::string>& cells);

  /// Append a data row. Rows may have differing lengths.
  void row(std::initializer_list<std::string_view> cells);
  void row(const std::vector<std::string>& cells);

  /// Append the rendering to `out`: every cell but a row's last is padded
  /// to its column's width plus two spaces, and a line of '-' as wide as
  /// the table separates the header (when set) from the rows.
  void append_to(std::string& out) const;

  /// Render with a separator line beneath the header, as one write.
  void print(std::ostream& os) const;

  std::size_t row_count() const { return body_.row_end.size(); }

 private:
  /// Rows of cells in one arena: cell k is text[cell_end[k-1], cell_end[k]),
  /// and row r holds cells [row_end[r-1], row_end[r]).
  struct Cells {
    std::string text;
    std::vector<std::size_t> cell_end;
    std::vector<std::size_t> row_end;

    template <typename Range>
    void add_row(const Range& cells);
    void clear();
  };

  Cells header_;
  Cells body_;
};

/// printf-style helper returning std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Render an ASCII sparkline/bar of `value` within [0, maxv] using `width`
/// '#' characters; used for textual figure rendering.
std::string ascii_bar(double value, double maxv, int width);

}  // namespace symcan
