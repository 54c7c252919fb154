#include "symcan/util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace symcan {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, separator, two rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  // Columns align: "a" padded to the width of "longer".
  EXPECT_NE(out.find("a       1"), std::string::npos);
}

TEST(TextTable, HandlesRaggedRows) {
  TextTable t;
  t.row({"a"});
  t.row({"b", "c", "d"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("d"), std::string::npos);
}

TEST(TextTable, RowCount) {
  TextTable t;
  EXPECT_EQ(t.row_count(), 0u);
  t.row({"x"});
  t.row({"y"});
  EXPECT_EQ(t.row_count(), 2u);
}

/// The historical ostream printer, cell by cell; the reference the arena
/// table must reproduce byte for byte.
std::string reference_print(const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream os;
  std::vector<std::size_t> width;
  auto widen = [&](const std::vector<std::string>& r) {
    if (r.size() > width.size()) width.resize(r.size(), 0);
    for (std::size_t i = 0; i < r.size(); ++i) width[i] = std::max(width[i], r[i].size());
  };
  if (!header.empty()) widen(header);
  for (const auto& r : rows) widen(r);
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << r[i];
      if (i + 1 < r.size()) os << std::string(width[i] - r[i].size() + 2, ' ');
    }
    os << '\n';
  };
  if (!header.empty()) {
    emit(header);
    std::size_t total = 0;
    for (std::size_t i = 0; i < width.size(); ++i)
      total += width[i] + (i + 1 < width.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows) emit(r);
  return os.str();
}

TEST(TextTable, RandomRaggedTablesMatchReferencePrinter) {
  std::mt19937_64 rng{13};
  for (int round = 0; round < 500; ++round) {
    const auto random_row = [&](std::size_t max_cells) {
      std::vector<std::string> r(rng() % (max_cells + 1));
      for (auto& c : r) c = std::string(rng() % 12, static_cast<char>('a' + rng() % 26));
      return r;
    };
    const std::vector<std::string> header = round % 4 == 0 ? std::vector<std::string>{}
                                                           : random_row(6);
    std::vector<std::vector<std::string>> rows(rng() % 9);
    for (auto& r : rows) r = random_row(7);

    TextTable t;
    t.header(header);
    for (const auto& r : rows) t.row(r);
    std::ostringstream os;
    t.print(os);
    ASSERT_EQ(os.str(), reference_print(header, rows)) << "round " << round;
    ASSERT_EQ(t.row_count(), rows.size());
  }
}

TEST(TextTable, StringViewCellsAndAppendTo) {
  TextTable t;
  const std::string owned = "beta";
  t.header({"k", std::string_view{"value"}});
  t.row({owned, std::string_view{"1234567", 3}});
  std::string out = ">";
  t.append_to(out);
  EXPECT_EQ(out, ">k     value\n-----------\nbeta  123\n");
}

TEST(Strprintf, FormatsLikePrintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(AsciiBar, ScalesAndClamps) {
  EXPECT_EQ(ascii_bar(5, 10, 10), "#####");
  EXPECT_EQ(ascii_bar(10, 10, 4), "####");
  EXPECT_EQ(ascii_bar(20, 10, 4), "####");  // clamped
  EXPECT_EQ(ascii_bar(-1, 10, 4), "");
  EXPECT_EQ(ascii_bar(1, 0, 4), "");  // degenerate max
}

}  // namespace
}  // namespace symcan
