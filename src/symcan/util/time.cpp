#include "symcan/util/time.hpp"

#include <cassert>
#include <charconv>
#include <cstring>
#include <limits>
#include <string_view>

namespace symcan {

std::size_t format_duration(char* buf, Duration d) {
  if (d.is_infinite()) {
    std::memcpy(buf, "inf", 3);
    return 3;
  }
  const std::int64_t n = d.count_ns();
  // Magnitude in unsigned arithmetic, so int64 min has one too.
  const std::uint64_t a = n < 0 ? 0 - static_cast<std::uint64_t>(n) : static_cast<std::uint64_t>(n);
  char* const end = buf + kDurationChars;
  if (a < 1'000) {
    char* p = std::to_chars(buf, end, n).ptr;
    std::memcpy(p, " ns", 3);
    return static_cast<std::size_t>(p - buf) + 3;
  }
  // The same value and unit choice printf "%.6g" was given; to_chars
  // rounds the double exactly as printf does.
  double v = d.as_us();
  std::string_view unit = " us";
  if (a >= 1'000'000'000) {
    v = d.as_s();
    unit = " s";
  } else if (a >= 1'000'000) {
    v = d.as_ms();
    unit = " ms";
  }
  char* p = std::to_chars(buf, end, v, std::chars_format::general, 6).ptr;
  std::memcpy(p, unit.data(), unit.size());
  return static_cast<std::size_t>(p - buf) + unit.size();
}

void append_fixed(std::string& out, double v, int precision) {
  assert(precision >= 0 && precision <= 17);
  // Any finite double: sign, 309 integer digits, point and decimals.
  char buf[std::numeric_limits<double>::max_exponent10 + 3 + 17];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

std::string to_string(Duration d) {
  char buf[kDurationChars];
  return std::string(buf, format_duration(buf, d));
}

std::ostream& operator<<(std::ostream& os, Duration d) {
  char buf[kDurationChars];
  return os << std::string_view(buf, format_duration(buf, d));
}

}  // namespace symcan
