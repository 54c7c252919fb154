#include "symcan/analysis/provenance.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "symcan/analysis/rta_context.hpp"
#include "symcan/analysis/tt_schedule.hpp"
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
  SolveTrace trace;

  Provenance p;
  p.result = solve_message(ctx, trace);
  p.name = ctx.name;
  p.id = ctx.id;
  p.blocking_frame = labels.blocking_frame;
  p.bus_blocking = labels.bus_blocking;
  p.intra_node_blocking = labels.intra_node_blocking;
  p.own_cost = ctx.cost;
  p.busy_iterates = std::move(trace.busy_iterates);
  if (p.result.diverged) return p;  // No finite window to decompose.

  // Re-evaluate every term of the window recurrence at the recorded
  // fixed point w(q*). Because w* satisfies the recurrence exactly, the
  // terms sum back to w* in integer arithmetic — no residual, no
  // rounding. This mirrors solve_message()'s interference evaluation
  // including the TtGroup build fallback, so each share is precisely
  // what the solver charged.
  const Duration w = trace.critical_window;
  const Duration probe = w + ctx.timing.bit_time();
  p.critical_instance = trace.critical_instance;
  p.critical_window = w;
  p.window_iterates = std::move(trace.window_iterates);
  p.preceding_instances = trace.critical_instance * ctx.cost;
  p.arrival_credit = ctx.activation.delta_min(trace.critical_instance + 1);
  p.error_overhead = ctx.errors->overhead(w + ctx.cost, ctx.max_retx, ctx.timing);

  for (std::size_t i = 0; i < ctx.hp.size(); ++i) {
    const auto& [em, cost] = ctx.hp[i];
    InterferenceShare s;
    s.name = labels.hp[i];
    s.preemptions = em.eta_plus(probe);
    s.contribution = s.preemptions * cost;
    p.interference.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < ctx.tt.size(); ++i) {
    if (auto g = TtGroup::build(ctx.tt[i])) {
      // Offset-group demand is bounded jointly over the hyperperiod;
      // it has no exact per-member split, so the group is one share.
      InterferenceShare s;
      s.name = labels.tt_sender[i];
      s.members = labels.tt_members[i];
      s.offset_group = true;
      s.contribution = g->interference(probe);
      p.interference.push_back(std::move(s));
    } else {
      // Hyperperiod too large: the solver fell back to offset-blind
      // event models, so the members decompose individually after all.
      for (std::size_t j = 0; j < ctx.tt[i].size(); ++j) {
        const TtGroup::Member& m = ctx.tt[i][j];
        InterferenceShare s;
        s.name = labels.tt_members[i][j];
        s.preemptions = EventModel::periodic_jitter(m.period, m.jitter).eta_plus(probe);
        s.contribution = s.preemptions * m.cost;
        p.interference.push_back(std::move(s));
      }
    }
  }
  std::sort(p.interference.begin(), p.interference.end(),
            [](const InterferenceShare& a, const InterferenceShare& b) {
              if (a.contribution != b.contribution) return a.contribution > b.contribution;
              return a.name < b.name;
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

void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  char buf[256];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < 0) {
    va_end(ap2);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    // Hostile-length names (escaped message names in JSON) overflow the
    // stack buffer; re-render into a right-sized heap one.
    std::string big(static_cast<std::size_t>(n) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, ap2);
    big.resize(static_cast<std::size_t>(n));
    out += big;
  }
  va_end(ap2);
}

/// "a -> b -> ... -> z", eliding the middle of long trajectories.
std::string iterates_to_text(const std::vector<Duration>& xs) {
  std::string out;
  constexpr std::size_t kHead = 4, kTail = 2;
  if (xs.size() <= kHead + kTail + 1) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) out += " -> ";
      out += to_string(xs[i]);
    }
    return out;
  }
  for (std::size_t i = 0; i < kHead; ++i) {
    out += to_string(xs[i]);
    out += " -> ";
  }
  appendf(out, "... (%zu elided) ", xs.size() - kHead - kTail);
  for (std::size_t i = xs.size() - kTail; i < xs.size(); ++i) {
    out += "-> ";
    out += to_string(xs[i]);
    if (i + 1 < xs.size()) out += " ";
  }
  return out;
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
  appendf(out, "message %s (id 0x%X)\n", p.name.c_str(), p.id);
  if (r.diverged) {
    appendf(out, "verdict: DIVERGED — busy period exceeds the analysis horizon\n");
    appendf(out, "convergence: busy period %s\n", iterates_to_text(p.busy_iterates).c_str());
    return out;
  }
  appendf(out, "verdict: %s  (wcrt %s vs deadline %s, slack %s)\n",
          r.schedulable ? "schedulable" : "DEADLINE MISS", to_string(r.wcrt).c_str(),
          to_string(r.deadline).c_str(), to_string(r.slack()).c_str());
  appendf(out, "busy period: %s  (%" PRId64 " instances, %" PRId64 " fixed-point iterations)\n",
          to_string(r.busy_period).c_str(), r.instances, r.fixedpoint_iterations);
  appendf(out, "critical instance: q* = %" PRId64 "  (window w* = %s)\n", p.critical_instance,
          to_string(p.critical_window).c_str());
  out += "breakdown of the bound:\n";
  appendf(out, "  blocking             %12s", to_string(p.bus_blocking + p.intra_node_blocking).c_str());
  if (!p.blocking_frame.empty())
    appendf(out, "   frame '%s' (bus %s + intra-node %s)", p.blocking_frame.c_str(),
            to_string(p.bus_blocking).c_str(), to_string(p.intra_node_blocking).c_str());
  out += "\n";
  appendf(out, "  preceding instances  %12s   %" PRId64 " x %s\n",
          to_string(p.preceding_instances).c_str(), p.critical_instance,
          to_string(p.own_cost).c_str());
  appendf(out, "  interference         %12s\n", to_string(p.interference_total).c_str());
  for (const auto& s : p.interference) {
    if (s.offset_group) {
      appendf(out, "    %-18s %12s   offset group, %zu members\n", s.name.c_str(),
              to_string(s.contribution).c_str(), s.members.size());
    } else {
      appendf(out, "    %-18s %12s   %" PRId64 " preemptions\n", s.name.c_str(),
              to_string(s.contribution).c_str(), s.preemptions);
    }
  }
  appendf(out, "  error overhead       %12s\n", to_string(p.error_overhead).c_str());
  appendf(out, "  own transmission     %12s\n", to_string(p.own_cost).c_str());
  appendf(out, "  arrival credit       %12s\n", to_string(-p.arrival_credit).c_str());
  appendf(out, "  = bound              %12s   (sum of parts %s wcrt)\n",
          to_string(p.sum_of_parts()).c_str(), p.sum_check() ? "==" : "!=");
  appendf(out, "convergence: busy period %s\n", iterates_to_text(p.busy_iterates).c_str());
  appendf(out, "convergence: window q*   %s\n", iterates_to_text(p.window_iterates).c_str());
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
