#include "symcan/analysis/provenance.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "symcan/analysis/rta_context.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/obs/export.hpp"

namespace symcan::analysis {

Duration Provenance::sum_of_parts() const {
  return bus_blocking + intra_node_blocking + preceding_instances + interference_total +
         error_overhead + own_cost - arrival_credit;
}

Provenance explain_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index) {
  ContextLabels labels;
  const MessageContext ctx = build_message_context(km, cfg, index, &labels);
  const ColumnarBus& row = ctx.row;
  SolveTrace trace;

  Provenance p;
  p.result = solve_columnar(row, 0, *row.errors, trace);
  p.result.name = ctx.name;
  p.result.id = ctx.id;
  p.name = ctx.name;
  p.id = ctx.id;
  p.blocking_frame = labels.blocking_frame;
  p.bus_blocking = labels.bus_blocking;
  p.intra_node_blocking = labels.intra_node_blocking;
  p.own_cost = row.cost[0];
  p.busy_iterates = std::move(trace.busy_iterates);
  if (p.result.diverged) return p;  // No finite window to decompose.

  // Re-evaluate every term of the window recurrence at the recorded
  // fixed point w(q*). Because w* satisfies the recurrence exactly, the
  // terms sum back to w* in integer arithmetic — no residual, no
  // rounding. The row's hp entries (offset-blind group fallbacks
  // included) and built groups are exactly what the solver charged.
  const Duration w = trace.critical_window;
  const Duration probe = w + row.timing.bit_time();
  p.critical_instance = trace.critical_instance;
  p.critical_window = w;
  p.window_iterates = std::move(trace.window_iterates);
  p.preceding_instances = trace.critical_instance * row.cost[0];
  p.arrival_credit = columnar_delta_min(trace.critical_instance + 1, row.act_period[0],
                                        row.act_jitter[0], row.act_dmin[0]);
  p.error_overhead = row.errors->overhead(w + row.cost[0], row.max_retx[0], row.timing);

  for (std::size_t k = 0; k < labels.hp.size(); ++k) {
    InterferenceShare s;
    s.name = labels.hp[k];
    s.preemptions = columnar_eta_plus(probe, row.hp_period[k], row.hp_jitter[k], row.hp_dmin[k]);
    s.contribution = s.preemptions * row.hp_cost[k];
    p.interference.push_back(std::move(s));
  }
  // Offset-group demand is bounded jointly over the hyperperiod; it has
  // no exact per-member split, so each group is one share.
  for (std::size_t g = 0; g < labels.tt_sender.size(); ++g) {
    InterferenceShare s;
    s.name = labels.tt_sender[g];
    s.members = labels.tt_members[g];
    s.offset_group = true;
    s.contribution = row.tt_groups[g].interference(probe);
    p.interference.push_back(std::move(s));
  }
  std::sort(p.interference.begin(), p.interference.end(),
            [](const InterferenceShare& a, const InterferenceShare& b) {
              if (a.contribution != b.contribution) return a.contribution > b.contribution;
              if (a.name != b.name) return a.name < b.name;
              return a.offset_group < b.offset_group;
            });
  for (const auto& s : p.interference) p.interference_total += s.contribution;
  return p;
}

std::optional<std::size_t> find_message(const KMatrix& km, std::string_view name) {
  const auto& msgs = km.messages();
  for (std::size_t i = 0; i < msgs.size(); ++i)
    if (msgs[i].name == name) return i;
  return std::nullopt;
}

namespace {

/// printf "%-Ns" (left) or "%Ns" of `s`.
void append_padded(std::string& out, std::string_view s, std::size_t width, bool left) {
  const std::size_t pad = s.size() < width ? width - s.size() : 0;
  if (!left) out.append(pad, ' ');
  out += s;
  if (left) out.append(pad, ' ');
}

/// to_string(d), right-aligned in `width` columns (printf "%12s").
void append_duration(std::string& out, Duration d, std::size_t width = 0) {
  char buf[kDurationChars];
  append_padded(out, {buf, format_duration(buf, d)}, width, false);
}

/// Names print up to their first NUL, as printf "%s" of c_str() did.
std::string_view c_name(const std::string& s) { return s.c_str(); }

/// "a -> b -> ... -> z", eliding the middle of long trajectories.
void append_iterates(std::string& out, const std::vector<Duration>& xs) {
  constexpr std::size_t kHead = 4, kTail = 2;
  if (xs.size() <= kHead + kTail + 1) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) out += " -> ";
      append_duration(out, xs[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < kHead; ++i) {
    append_duration(out, xs[i]);
    out += " -> ";
  }
  out += "... (";
  append_integer(out, xs.size() - kHead - kTail);
  out += " elided) ";
  for (std::size_t i = xs.size() - kTail; i < xs.size(); ++i) {
    out += "-> ";
    append_duration(out, xs[i]);
    if (i + 1 < xs.size()) out += " ";
  }
}

/// One "  label   <duration, 12 wide>" line of the breakdown.
void append_term(std::string& out, std::string_view label, Duration d) {
  out += "  ";
  append_padded(out, label, 21, true);
  append_duration(out, d, 12);
}

void iterates_to_json(obs::JsonWriter& w, const std::vector<Duration>& xs) {
  w.begin_array();
  for (const Duration x : xs) w.integer(x.count_ns());
  w.end_array();
}

}  // namespace

std::string provenance_to_text(const Provenance& p) {
  std::string out;
  const MessageResult& r = p.result;
  char hex[2 * sizeof p.id];
  const std::size_t hex_len =
      static_cast<std::size_t>(std::to_chars(hex, hex + sizeof hex, p.id, 16).ptr - hex);
  std::transform(hex, hex + hex_len, hex, [](char c) { return c >= 'a' ? c - 'a' + 'A' : c; });
  out += "message ";
  out += c_name(p.name);
  out += " (id 0x";
  out.append(hex, hex_len);
  out += ")\n";
  if (r.diverged) {
    out += "verdict: DIVERGED — busy period exceeds the analysis horizon\n";
    out += "convergence: busy period ";
    append_iterates(out, p.busy_iterates);
    out += '\n';
    return out;
  }
  out += "verdict: ";
  out += r.schedulable ? "schedulable" : "DEADLINE MISS";
  out += "  (wcrt ";
  append_duration(out, r.wcrt);
  out += " vs deadline ";
  append_duration(out, r.deadline);
  out += ", slack ";
  append_duration(out, r.slack());
  out += ")\nbusy period: ";
  append_duration(out, r.busy_period);
  out += "  (";
  append_integer(out, r.instances);
  out += " instances, ";
  append_integer(out, r.fixedpoint_iterations);
  out += " fixed-point iterations)\ncritical instance: q* = ";
  append_integer(out, p.critical_instance);
  out += "  (window w* = ";
  append_duration(out, p.critical_window);
  out += ")\nbreakdown of the bound:\n";
  append_term(out, "blocking", p.bus_blocking + p.intra_node_blocking);
  if (!p.blocking_frame.empty()) {
    out += "   frame '";
    out += c_name(p.blocking_frame);
    out += "' (bus ";
    append_duration(out, p.bus_blocking);
    out += " + intra-node ";
    append_duration(out, p.intra_node_blocking);
    out += ')';
  }
  out += '\n';
  append_term(out, "preceding instances", p.preceding_instances);
  out += "   ";
  append_integer(out, p.critical_instance);
  out += " x ";
  append_duration(out, p.own_cost);
  out += '\n';
  append_term(out, "interference", p.interference_total);
  out += '\n';
  for (const auto& s : p.interference) {
    out += "    ";
    append_padded(out, c_name(s.name), 18, true);
    out += ' ';
    append_duration(out, s.contribution, 12);
    out += "   ";
    if (s.offset_group) {
      out += "offset group, ";
      append_integer(out, s.members.size());
      out += " members\n";
    } else {
      append_integer(out, s.preemptions);
      out += " preemptions\n";
    }
  }
  append_term(out, "error overhead", p.error_overhead);
  out += '\n';
  append_term(out, "own transmission", p.own_cost);
  out += '\n';
  append_term(out, "arrival credit", -p.arrival_credit);
  out += '\n';
  append_term(out, "= bound", p.sum_of_parts());
  out += "   (sum of parts ";
  out += p.sum_check() ? "==" : "!=";
  out += " wcrt)\nconvergence: busy period ";
  append_iterates(out, p.busy_iterates);
  out += "\nconvergence: window q*   ";
  append_iterates(out, p.window_iterates);
  out += '\n';
  return out;
}

std::string provenance_to_json(const Provenance& p) {
  const MessageResult& r = p.result;
  std::string out;
  obs::JsonWriter w{out};
  w.begin_object();
  w.key("message").string(p.name);
  w.key("id").integer(p.id);
  w.key("schedulable").boolean(r.schedulable);
  w.key("diverged").boolean(r.diverged);
  w.key("wcrt_ns").integer(r.wcrt.count_ns());
  w.key("bcrt_ns").integer(r.bcrt.count_ns());
  w.key("deadline_ns").integer(r.deadline.count_ns());
  w.key("busy_period_ns").integer(r.busy_period.count_ns());
  w.key("instances").integer(r.instances);
  w.key("fixedpoint_iterations").integer(r.fixedpoint_iterations);
  w.key("breakdown").begin_object();
  w.key("blocking_frame").string(p.blocking_frame);
  w.key("bus_blocking_ns").integer(p.bus_blocking.count_ns());
  w.key("intra_node_blocking_ns").integer(p.intra_node_blocking.count_ns());
  w.key("critical_instance").integer(p.critical_instance);
  w.key("critical_window_ns").integer(p.critical_window.count_ns());
  w.key("preceding_instances_ns").integer(p.preceding_instances.count_ns());
  w.key("interference").begin_array();
  for (const InterferenceShare& s : p.interference) {
    w.begin_object();
    w.key("name").string(s.name);
    w.key("offset_group").boolean(s.offset_group);
    if (s.offset_group) {
      w.key("members").begin_array();
      for (const std::string& m : s.members) w.string(m);
      w.end_array();
    } else {
      w.key("preemptions").integer(s.preemptions);
    }
    w.key("contribution_ns").integer(s.contribution.count_ns());
    w.end_object();
  }
  w.end_array();
  w.key("interference_total_ns").integer(p.interference_total.count_ns());
  w.key("error_overhead_ns").integer(p.error_overhead.count_ns());
  w.key("own_cost_ns").integer(p.own_cost.count_ns());
  w.key("arrival_credit_ns").integer(p.arrival_credit.count_ns());
  w.key("sum_of_parts_ns").integer(p.sum_of_parts().count_ns());
  w.key("sum_check").boolean(p.sum_check());
  w.end_object();
  w.key("busy_iterates_ns");
  iterates_to_json(w, p.busy_iterates);
  w.key("window_iterates_ns");
  iterates_to_json(w, p.window_iterates);
  w.end_object();
  return out;
}

}  // namespace symcan::analysis
