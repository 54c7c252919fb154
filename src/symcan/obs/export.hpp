#pragma once

// Exporters for the obs subsystem: metrics → JSON, trace → Chrome
// `chrome://tracing` / Perfetto JSON (load via chrome://tracing "Load" or
// https://ui.perfetto.dev).

#include <concepts>
#include <string>
#include <string_view>
#include <type_traits>

#include "symcan/obs/metrics.hpp"
#include "symcan/obs/trace.hpp"
#include "symcan/util/time.hpp"

namespace symcan::obs {

/// Append `s` JSON-escaped (no surrounding quotes) to `out`: '"', '\\'
/// and control bytes are escaped ("\n", "\u001f", ...); every run of
/// other bytes, UTF-8 included, is appended verbatim in one piece.
void append_json_escaped(std::string& out, std::string_view s);

/// JSON-escape a string body (no surrounding quotes).
std::string json_escape(const std::string& s);

/// Append `v` as a JSON number: finite values print as printf "%.17g"
/// would (17 significant digits round-trip); NaN/Inf degrade to null.
void append_json_number(std::string& out, double v);

/// Finite numbers print via %.17g round-trip; NaN/Inf degrade to null.
std::string json_number(double v);

/// Append-only writer of compact JSON (no whitespace) into a caller-owned
/// string. Commas are placed automatically: a key or array element
/// written after a completed value is preceded by one. Strings go through
/// append_json_escaped, integers through append_integer and doubles
/// through append_json_number, so every emitter built on it spells values
/// the same way. The writer does not check nesting; callers keep their
/// begin/end calls balanced.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_{out} {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// `"k":`; the next call writes its value.
  JsonWriter& key(std::string_view k) {
    separate();
    quoted(k);
    out_ += ':';
    return *this;
  }

  JsonWriter& string(std::string_view s) {
    separate();
    quoted(s);
    comma_ = true;
    return *this;
  }

  template <std::integral Int>
    requires(!std::is_same_v<Int, bool>)
  JsonWriter& integer(Int v) {
    separate();
    append_integer(out_, v);
    comma_ = true;
    return *this;
  }

  JsonWriter& boolean(bool b) { return raw(b ? "true" : "false"); }

  JsonWriter& number(double v) {
    separate();
    append_json_number(out_, v);
    comma_ = true;
    return *this;
  }

  /// An already-rendered JSON value, appended verbatim.
  JsonWriter& raw(std::string_view json) {
    separate();
    out_.append(json);
    comma_ = true;
    return *this;
  }

 private:
  void separate() {
    if (comma_) out_ += ',';
    comma_ = false;
  }
  void quoted(std::string_view s) {
    out_ += '"';
    append_json_escaped(out_, s);
    out_ += '"';
  }
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    comma_ = true;
    return *this;
  }

  std::string& out_;
  bool comma_ = false;
};

/// {"counters":{...},"gauges":{...},"histograms":[...],"series":{...}}
std::string metrics_to_json(const MetricsRegistry& registry);

/// {"traceEvents":[...],"displayTimeUnit":"ms"} — spans as "ph":"X"
/// complete events, instants as "ph":"i".
std::string trace_to_chrome_json(const Tracer& tracer);

/// Throws std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& contents);

}  // namespace symcan::obs
