#include "symcan/sim/validation.hpp"

#include <algorithm>
#include <string_view>

#include "symcan/obs/export.hpp"

namespace symcan {

BoundValidation compare_bound_vs_observed(const BusResult& analysis, const SimResult& sim) {
  BoundValidation v;
  v.messages.reserve(analysis.messages.size());
  for (const MessageResult& r : analysis.messages) {
    BoundObservation o;
    o.name = r.name;
    o.bound = r.wcrt;
    o.diverged = r.diverged;
    if (const MessageStats* s = sim.find(r.name)) {
      o.observed_max = s->wcrt_observed;
      o.observed_p99 = s->percentile(0.99);
      o.completions = s->completions;
    }
    // A diverged analysis has no finite bound to violate; anything the
    // sim observed is trivially below infinity.
    o.violation = !o.diverged && o.completions > 0 && o.observed_max > o.bound;
    if (o.violation) ++v.violations;
    if (!o.diverged && o.completions > 0)
      v.worst_tightness = std::max(v.worst_tightness, o.tightness());
    v.messages.push_back(std::move(o));
  }
  return v;
}

namespace {

/// printf "%-Ns" (left) or "%Ns": `s` padded with spaces to `width`.
void append_padded(std::string& out, std::string_view s, std::size_t width, bool left) {
  const std::size_t pad = s.size() < width ? width - s.size() : 0;
  if (!left) out.append(pad, ' ');
  out += s;
  if (left) out.append(pad, ' ');
}

/// printf "%12s" of to_string(d).
void append_duration_cell(std::string& out, Duration d) {
  char buf[kDurationChars];
  append_padded(out, {buf, format_duration(buf, d)}, 12, false);
}

/// printf "%*.1f%%" of fraction * 100.
void append_percent(std::string& out, double fraction, std::size_t width) {
  const std::size_t start = out.size();
  append_fixed(out, fraction * 100.0, 1);
  const std::size_t len = out.size() - start;
  if (len < width) out.insert(start, width - len, ' ');
  out += '%';
}

}  // namespace

std::string validation_to_text(const BoundValidation& v) {
  std::string out = "bound vs observed: ";
  append_integer(out, v.messages.size());
  out += " messages, ";
  append_integer(out, v.violations);
  out += " violations, worst tightness ";
  append_percent(out, v.worst_tightness, 0);
  out += '\n';
  append_padded(out, "message", 20, true);
  for (const char* h : {"bound", "observed max", "observed p99", "gap"}) {
    out += ' ';
    append_padded(out, h, 12, false);
  }
  out += ' ';
  append_padded(out, "tight", 9, false);
  out += '\n';
  for (const BoundObservation& o : v.messages) {
    append_padded(out, o.name.c_str(), 20, true);  // printf %s: up to the first NUL
    for (const Duration d : {o.bound, o.observed_max, o.observed_p99, o.gap()}) {
      out += ' ';
      append_duration_cell(out, d);
    }
    out += ' ';
    append_percent(out, o.tightness(), 8);
    if (o.violation) out += "  <-- VIOLATION: sim exceeds analytic bound";
    out += '\n';
  }
  return out;
}

std::string validation_to_json(const BoundValidation& v) {
  std::string out;
  obs::JsonWriter w{out};
  w.begin_object();
  w.key("violations").integer(v.violations);
  w.key("worst_tightness").number(v.worst_tightness);
  w.key("messages").begin_array();
  for (const BoundObservation& o : v.messages) {
    w.begin_object();
    w.key("name").string(o.name);
    w.key("bound_ns").integer(o.bound.count_ns());
    w.key("observed_max_ns").integer(o.observed_max.count_ns());
    w.key("observed_p99_ns").integer(o.observed_p99.count_ns());
    w.key("completions").integer(o.completions);
    w.key("diverged").boolean(o.diverged);
    w.key("violation").boolean(o.violation);
    w.key("tightness").number(o.tightness());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace symcan
