// Differential tests of the printf-free formatters against the printf
// spellings they replace. The references below are the historical
// implementations and live only here: format_duration must spell every
// Duration exactly as "%.6g <unit>" / "%lld ns" did, and the run-appending
// JSON escaper must produce exactly what the char-by-char escaper did.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "symcan/can/kmatrix.hpp"
#include "symcan/obs/export.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/util/time.hpp"

namespace symcan {
namespace {

std::string reference_duration(Duration d) {
  if (d.is_infinite()) return "inf";
  const std::int64_t n = d.count_ns();
  const std::int64_t a = n < 0 ? -n : n;
  char buf[64];
  if (a >= 1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.6g s", d.as_s());
  } else if (a >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.6g ms", d.as_ms());
  } else if (a >= 1'000) {
    std::snprintf(buf, sizeof buf, "%.6g us", d.as_us());
  } else {
    std::snprintf(buf, sizeof buf, "%lld ns", static_cast<long long>(n));
  }
  return buf;
}

std::string reference_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string formatted(Duration d) {
  char buf[kDurationChars];
  return std::string(buf, format_duration(buf, d));
}

void expect_same(std::int64_t ns) {
  const Duration d = Duration::ns(ns);
  ASSERT_EQ(formatted(d), reference_duration(d)) << ns << " ns";
}

TEST(FormatDuration, UnitBoundaries) {
  for (const std::int64_t ns : {std::int64_t{0}, std::int64_t{1}, std::int64_t{999},
                                std::int64_t{1000}, std::int64_t{1001}, std::int64_t{999'999},
                                std::int64_t{1'000'000}, std::int64_t{999'999'999},
                                std::int64_t{1'000'000'000}}) {
    expect_same(ns);
    expect_same(-ns);
  }
  EXPECT_EQ(formatted(Duration::ns(999)), "999 ns");
  EXPECT_EQ(formatted(Duration::ns(1000)), "1 us");
  EXPECT_EQ(formatted(Duration::ns(999'999)), "999.999 us");
  EXPECT_EQ(formatted(Duration::ns(999'999'999)), "1000 ms");
}

TEST(FormatDuration, RoundHalfCases) {
  // Seven significant digits where the seventh is a 5: the rounding rule
  // (exact binary value, ties to even) must match printf's.
  for (const std::int64_t ns :
       {std::int64_t{1500}, std::int64_t{1'000'500}, std::int64_t{1'000'000'500},
        std::int64_t{1'234'565}, std::int64_t{2'000'005}, std::int64_t{9'999'995},
        std::int64_t{1'000'005'000}, std::int64_t{999'999'500}}) {
    expect_same(ns);
    expect_same(-ns);
  }
}

TEST(FormatDuration, NegativesAndScientificNotation) {
  // Values of 10^6 s and more print in %g's scientific spelling.
  for (const std::int64_t ns :
       {std::int64_t{-1}, std::int64_t{-116'800}, std::int64_t{-4'046'800},
        std::int64_t{999'999'500'000'000}, std::int64_t{1'000'000'000'000'000},
        std::int64_t{123'456'789'000'000'000}, std::numeric_limits<std::int64_t>::max() - 1,
        -std::numeric_limits<std::int64_t>::max()}) {
    expect_same(ns);
  }
  EXPECT_EQ(formatted(Duration::s(1'000'000)), "1e+06 s");
  EXPECT_EQ(formatted(-Duration::infinite()), "-9.22337e+09 s");
}

TEST(FormatDuration, Infinite) {
  EXPECT_EQ(formatted(Duration::infinite()), "inf");
  EXPECT_EQ(to_string(Duration::infinite()), "inf");
}

TEST(FormatDuration, MillionSeededValuesMatchPrintf) {
  // Half the values have magnitudes spread evenly over 1..18 decimal
  // digits (nearly all need rounding); the other half are "round" values,
  // m * 10^k with m of up to seven digits, as bit-time multiples are, so
  // values exact in six digits and ones one digit past it are crossed at
  // every unit.
  std::mt19937_64 rng{20060101};
  std::uniform_int_distribution<int> digits{0, 18};
  std::uniform_int_distribution<int> mantissa_digits{1, 7};
  std::uniform_int_distribution<int> zeros{0, 11};
  const auto pow10 = [](int k) {
    std::int64_t p = 1;
    while (k-- > 0) p *= 10;
    return p;
  };
  for (int i = 0; i < 1'000'000; ++i) {
    std::int64_t ns = 0;
    if (i % 2 == 0) {
      const std::int64_t limit = pow10(digits(rng));
      ns = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(limit == 1 ? 10 : limit));
    } else {
      const std::int64_t m = static_cast<std::int64_t>(
          rng() % static_cast<std::uint64_t>(pow10(mantissa_digits(rng))));
      ns = m * pow10(zeros(rng));
    }
    if (rng() & 1) ns = -ns;
    expect_same(ns);
  }
}

TEST(FormatDuration, ToStringAndStreamAreWrappers) {
  const Duration d = Duration::ns(4'046'800);
  EXPECT_EQ(to_string(d), "4.0468 ms");
  std::ostringstream os;
  os.width(12);  // the stream honours field width as before
  os << d;
  EXPECT_EQ(os.str(), "   4.0468 ms");
}

TEST(FormatInteger, ExtremesAndSeededValuesMatchPrintf) {
  const auto check = [](long long v) {
    char ref[32];
    std::snprintf(ref, sizeof ref, "%lld", v);
    char buf[kIntegerChars];
    ASSERT_EQ(std::string(buf, format_integer(buf, v)), ref) << v;
    std::string appended = "x";
    append_integer(appended, static_cast<std::int64_t>(v));
    ASSERT_EQ(appended, std::string("x") + ref);
  };
  check(0);
  check(-1);
  check(std::numeric_limits<std::int64_t>::min());
  check(std::numeric_limits<std::int64_t>::max());
  char ref[32];
  std::snprintf(ref, sizeof ref, "%zu", std::numeric_limits<std::size_t>::max());
  char buf[kIntegerChars];
  EXPECT_EQ(std::string(buf, format_integer(buf, std::numeric_limits<std::size_t>::max())), ref);
  std::mt19937_64 rng{7};
  for (int i = 0; i < 100'000; ++i) check(static_cast<long long>(rng()) >> (rng() % 64));
}

TEST(RenderAnalyze, IdsSpellAsPrintfHex) {
  // The id column is "0x%03X": upper-case, at least three digits, and
  // as many as a 29-bit extended id needs.
  KMatrix km{"bus", BitTiming{500'000}};
  EcuNode node;
  node.name = "ecu";
  km.add_node(node);
  const CanId ids[] = {0x5, 0x7F, 0x7FF, 0xABCD, 0x1ABCDEF, 0x1FFFFFFF};
  for (const CanId id : ids) {
    CanMessage m;
    m.name = "m" + std::to_string(id);
    m.id = id;
    m.format = id > 0x7FF ? FrameFormat::kExtended : FrameFormat::kStandard;
    m.payload_bytes = 1;
    m.period = Duration::ms(100);
    m.sender = node.name;
    km.add_message(m);
  }
  std::ostringstream out;
  pipeline::render_analyze(km, pipeline::assumptions_for(pipeline::AssumptionPreset::kDefault),
                           out);
  for (const CanId id : ids) {
    char want[16];
    std::snprintf(want, sizeof want, " 0x%03X ", id);
    EXPECT_NE(out.str().find(want), std::string::npos) << want << "\n" << out.str();
  }
}

TEST(JsonEscapeAppend, EveryByteMatchesCharByCharReference) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    ASSERT_EQ(obs::json_escape(one), reference_escape(one)) << "byte " << b;
  }
  EXPECT_EQ(obs::json_escape(all), reference_escape(all));
}

TEST(JsonEscapeAppend, RandomStringsMatchReference) {
  // Biased toward the bytes that need escaping so runs of clean bytes
  // are short and boundaries fall everywhere.
  std::mt19937_64 rng{7};
  const std::string special = "\"\\\b\f\n\r\t\x01\x1f\x7f\x80\xff";
  for (int i = 0; i < 20'000; ++i) {
    std::string s(rng() % 48, '\0');
    for (char& c : s)
      c = (rng() % 3 == 0) ? special[rng() % special.size()] : static_cast<char>(rng() % 256);
    std::string appended = "prefix";
    obs::append_json_escaped(appended, s);
    ASSERT_EQ(appended, "prefix" + reference_escape(s));
  }
}

}  // namespace
}  // namespace symcan
