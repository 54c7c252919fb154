// JSON string escaping, pinned against hostile names. Metric, message
// and ECU names flow from user-controlled inputs (CSV / DBC files)
// straight into every JSON exporter; a single unescaped quote or control
// byte silently corrupts the whole document for downstream tools. These
// tests pin obs::json_escape byte-for-byte and prove the exporters route
// every name through it.

#include "symcan/obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "symcan/sim/trace.hpp"
#include "symcan/sim/trace_export.hpp"

namespace symcan {
namespace {

// Minimal well-formedness scan: inside strings, escapes must be legal and
// control bytes absent; outside, braces/brackets must balance. Catches
// exactly the corruption unescaped names cause without a full parser.
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control byte
      if (c == '\\') {
        if (++i >= s.size()) return false;
        const char e = s[i];
        if (e == 'u') {
          if (i + 4 >= s.size()) return false;
          for (std::size_t k = 1; k <= 4; ++k)
            if (!isxdigit(static_cast<unsigned char>(s[i + k]))) return false;
          i += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

const char kHostile[] = "a\"b\\c\nd\te\x01" "f, \"}], ";

TEST(JsonEscape, PinnedByteForByte) {
  EXPECT_EQ(obs::json_escape("plain_name-42"), "plain_name-42");
  EXPECT_EQ(obs::json_escape("\""), "\\\"");
  EXPECT_EQ(obs::json_escape("\\"), "\\\\");
  EXPECT_EQ(obs::json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  // Other control bytes take the \u00XX form.
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x1f')), "\\u001f");
  // Non-ASCII bytes (UTF-8 continuation etc.) pass through untouched.
  EXPECT_EQ(obs::json_escape("\xc3\xa9"), "\xc3\xa9");
  EXPECT_EQ(obs::json_escape(kHostile), "a\\\"b\\\\c\\nd\\te\\u0001f, \\\"}], ");
}

TEST(JsonWriter, PlacesCommasAcrossNestedScopes) {
  std::string out;
  obs::JsonWriter w{out};
  w.begin_object();
  w.key("id").string(kHostile);
  w.key("n").integer(std::int64_t{-42});
  w.key("u").integer(std::numeric_limits<std::uint64_t>::max());
  w.key("ok").boolean(true);
  w.key("list").begin_array();
  w.integer(1).begin_object().end_object().begin_array().end_array().string("x");
  w.end_array();
  w.key("empty").begin_object().end_object();
  w.key("raw").raw("{\"a\":[1,2]}");
  w.key("nan").number(std::numeric_limits<double>::quiet_NaN());
  w.key("pi").number(3.25);
  w.end_object();
  EXPECT_EQ(out,
            "{\"id\":\"a\\\"b\\\\c\\nd\\te\\u0001f, \\\"}], \","
            "\"n\":-42,\"u\":18446744073709551615,\"ok\":true,"
            "\"list\":[1,{},[],\"x\"],\"empty\":{},\"raw\":{\"a\":[1,2]},"
            "\"nan\":null,\"pi\":3.25}");
  EXPECT_TRUE(json_well_formed(out)) << out;
}

TEST(JsonWriter, NumbersSpellLikeJsonNumber) {
  for (const double v : {0.0, -0.0, 0.1, 1e300, -2.5e-7, 123456789.125,
                         std::numeric_limits<double>::infinity()}) {
    std::string out;
    obs::JsonWriter{out}.number(v);
    EXPECT_EQ(out, obs::json_number(v));
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      EXPECT_EQ(out, buf);
    }
  }
}

TEST(JsonEscape, MetricsExportSurvivesHostileMetricNames) {
  obs::MetricsRegistry reg;
  reg.counter(kHostile).add(3);
  reg.histogram(std::string("h") + kHostile).observe(1.5);
  reg.gauge("ok").set(1);
  const std::string json = obs::metrics_to_json(reg);
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
  EXPECT_EQ(json.find(std::string("\"") + kHostile), std::string::npos);
}

TEST(JsonEscape, SimTraceExportersSurviveHostileMessageNames) {
  Trace trace;
  trace.record(Duration::us(10), TraceEventType::kRelease, kHostile, 0);
  trace.record(Duration::us(20), TraceEventType::kTxStart, kHostile, 0);
  trace.record(Duration::us(30), TraceEventType::kTxEnd, kHostile, 0);

  const std::string jsonl = trace_to_jsonl(trace);
  // Each line must be well-formed on its own.
  std::size_t start = 0;
  int lines = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    EXPECT_TRUE(json_well_formed(line)) << line;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(jsonl.find("a\\\"b\\\\c"), std::string::npos);

  // Names with ';' or line breaks can no longer enter a KMatrix at all
  // (validate() rejects them to keep the CSV round-trip invertible), so
  // the matrix path gets the worst name that can legally exist there:
  // quotes, backslashes, tabs and control bytes still flow to JSON.
  const std::string hostile_in_matrix = "a\"b\\c\td\x01e, \"}], ";
  KMatrix km{"bus", BitTiming{500'000}};
  EcuNode node;
  node.name = "ecu\"with\\quotes";
  km.add_node(node);
  CanMessage m;
  m.name = hostile_in_matrix;
  m.id = 0x10;
  m.payload_bytes = 8;
  m.period = Duration::ms(10);
  m.sender = node.name;
  km.add_message(m);

  const std::string chrome = sim_trace_to_chrome_json(trace, km);
  EXPECT_TRUE(json_well_formed(chrome)) << chrome;
  EXPECT_NE(chrome.find("ecu\\\"with\\\\quotes"), std::string::npos);
  EXPECT_NE(chrome.find("a\\\"b\\\\c"), std::string::npos);
}

}  // namespace
}  // namespace symcan
