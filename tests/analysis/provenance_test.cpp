// Provenance differential suite: the acceptance bar for `symcan explain`
// is that a breakdown is not a narrative but a *proof* — its terms sum
// back to the bound exactly, and the embedded verdict is bit-identical
// to the plain analysis (same code path, iteration counts included),
// across every assumption preset.

#include "symcan/analysis/provenance.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

struct PresetParam {
  const char* name;
  CanRtaConfig (*make)();
};

CanRtaConfig default_assumptions() {
  CanRtaConfig cfg;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  return cfg;
}

CanRtaConfig sporadic_assumptions() {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  cfg.errors = std::make_shared<SporadicErrors>(Duration::ms(40));
  return cfg;
}

CanRtaConfig offset_blind_assumptions() {
  CanRtaConfig cfg = worst_case_assumptions();
  cfg.use_offsets = false;
  return cfg;
}

class ProvenanceAcrossPresets : public ::testing::TestWithParam<PresetParam> {
 protected:
  static std::vector<KMatrix> workloads() {
    std::vector<KMatrix> out;
    for (const std::uint64_t seed : {3ull, 11ull}) {
      PowertrainConfig wl;
      wl.seed = seed;
      wl.message_count = 24;
      wl.ecu_count = 4;
      wl.target_utilization = 0.55;
      KMatrix km = generate_powertrain(wl);
      assume_jitter_fraction(km, 0.25, /*override_known=*/true);
      out.push_back(km);
      // An offset-scheduled sibling exercises the TtGroup shares.
      snap_periods(km, Duration::ms(1));
      assign_tt_offsets(km);
      out.push_back(std::move(km));
    }
    return out;
  }
};

TEST_P(ProvenanceAcrossPresets, SumOfPartsReproducesTheBoundExactly) {
  const CanRtaConfig cfg = GetParam().make();
  for (const KMatrix& km : workloads()) {
    for (std::size_t i = 0; i < km.size(); ++i) {
      const analysis::Provenance p = analysis::explain_message(km, cfg, i);
      EXPECT_TRUE(p.sum_check()) << p.name;
      if (p.result.diverged) continue;
      // Exact integer identity, not a tolerance: the critical window is a
      // fixed point, so re-summing its terms must reproduce it bit for bit.
      EXPECT_EQ(p.sum_of_parts(), p.result.wcrt) << p.name;
      Duration shares = Duration::zero();
      for (const auto& s : p.interference) shares += s.contribution;
      EXPECT_EQ(shares, p.interference_total) << p.name;
      EXPECT_EQ(p.bus_blocking + p.intra_node_blocking, p.result.blocking) << p.name;
    }
  }
}

TEST_P(ProvenanceAcrossPresets, ExplainedVerdictIsBitIdenticalToPlainAnalysis) {
  const CanRtaConfig cfg = GetParam().make();
  for (const KMatrix& km : workloads()) {
    const CanRta rta{km, cfg};
    for (std::size_t i = 0; i < km.size(); ++i) {
      const MessageResult plain = rta.analyze_message(i);
      const analysis::Provenance p = analysis::explain_message(km, cfg, i);
      const MessageResult& ex = p.result;
      EXPECT_EQ(ex.name, plain.name);
      EXPECT_EQ(ex.wcrt, plain.wcrt) << plain.name;
      EXPECT_EQ(ex.bcrt, plain.bcrt) << plain.name;
      EXPECT_EQ(ex.deadline, plain.deadline) << plain.name;
      EXPECT_EQ(ex.blocking, plain.blocking) << plain.name;
      EXPECT_EQ(ex.busy_period, plain.busy_period) << plain.name;
      EXPECT_EQ(ex.instances, plain.instances) << plain.name;
      // Identical iteration counts prove explain runs the same solver
      // path, not a lookalike.
      EXPECT_EQ(ex.fixedpoint_iterations, plain.fixedpoint_iterations) << plain.name;
      EXPECT_EQ(ex.schedulable, plain.schedulable) << plain.name;
      EXPECT_EQ(ex.diverged, plain.diverged) << plain.name;
    }
  }
}

TEST_P(ProvenanceAcrossPresets, SharesAreSortedAndTrajectoryEndsAtFixedPoint) {
  const CanRtaConfig cfg = GetParam().make();
  for (const KMatrix& km : workloads()) {
    for (std::size_t i = 0; i < km.size(); ++i) {
      const analysis::Provenance p = analysis::explain_message(km, cfg, i);
      if (p.result.diverged) continue;
      for (std::size_t k = 1; k < p.interference.size(); ++k)
        EXPECT_GE(p.interference[k - 1].contribution, p.interference[k].contribution) << p.name;
      ASSERT_FALSE(p.busy_iterates.empty()) << p.name;
      EXPECT_EQ(p.busy_iterates.back(), p.result.busy_period) << p.name;
      ASSERT_FALSE(p.window_iterates.empty()) << p.name;
      EXPECT_EQ(p.window_iterates.back(), p.critical_window) << p.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ProvenanceAcrossPresets,
    ::testing::Values(PresetParam{"best_case", &best_case_assumptions},
                      PresetParam{"worst_case", &worst_case_assumptions},
                      PresetParam{"default_period", &default_assumptions},
                      PresetParam{"sporadic_errors", &sporadic_assumptions},
                      PresetParam{"offset_blind", &offset_blind_assumptions}),
    [](const ::testing::TestParamInfo<PresetParam>& p) { return std::string(p.param.name); });

TEST(ProvenanceRendering, TextAndJsonCarryTheBreakdown) {
  PowertrainConfig wl;
  wl.seed = 5;
  wl.message_count = 16;
  wl.ecu_count = 4;
  wl.target_utilization = 0.45;
  const KMatrix km = generate_powertrain(wl);
  const CanRtaConfig cfg = worst_case_assumptions();
  // The lowest-priority message sees the richest breakdown.
  const std::size_t index = km.priority_order().back();
  const analysis::Provenance p = analysis::explain_message(km, cfg, index);

  const std::string text = analysis::provenance_to_text(p);
  EXPECT_NE(text.find("breakdown of the bound"), std::string::npos);
  EXPECT_NE(text.find("sum of parts == wcrt"), std::string::npos);
  EXPECT_NE(text.find(p.name), std::string::npos);

  const std::string json = analysis::provenance_to_json(p);
  EXPECT_NE(json.find("\"sum_check\":true"), std::string::npos);
  EXPECT_NE(json.find("\"interference\":["), std::string::npos);
  EXPECT_NE(json.find("\"busy_iterates_ns\":["), std::string::npos);
}

/// The printf layout provenance_to_text had, kept here as the reference
/// for its byte identity (rendered at whatever length it needs).
void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string buf(static_cast<std::size_t>(n) + 1, '\0');
  std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
  va_end(ap2);
  buf.resize(static_cast<std::size_t>(n));
  out += buf;
}

std::string printf_iterates(const std::vector<Duration>& xs) {
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

std::string printf_provenance_text(const analysis::Provenance& p) {
  std::string out;
  const MessageResult& r = p.result;
  appendf(out, "message %s (id 0x%X)\n", p.name.c_str(), p.id);
  if (r.diverged) {
    appendf(out, "verdict: DIVERGED — busy period exceeds the analysis horizon\n");
    appendf(out, "convergence: busy period %s\n", printf_iterates(p.busy_iterates).c_str());
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
  appendf(out, "  blocking             %12s",
          to_string(p.bus_blocking + p.intra_node_blocking).c_str());
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
  appendf(out, "convergence: busy period %s\n", printf_iterates(p.busy_iterates).c_str());
  appendf(out, "convergence: window q*   %s\n", printf_iterates(p.window_iterates).c_str());
  return out;
}

TEST(ProvenanceRendering, TextMatchesPrintfLayoutOnRandomProvenances) {
  std::mt19937_64 rng{0x9e0};
  std::uniform_int_distribution<int> name_len{0, 300};
  std::uniform_int_distribution<std::int64_t> ns{0, 5'000'000'000};
  const auto name = [&](char c) {
    const int len = rng() % 2 ? name_len(rng) % 24 : name_len(rng);
    return std::string(static_cast<std::size_t>(len), c);
  };
  const auto duration = [&] {
    if (rng() % 16 == 0) return Duration::infinite();
    return Duration::ns(ns(rng) / static_cast<std::int64_t>(1 + rng() % 1000));
  };
  const auto iterates = [&] {
    std::vector<Duration> xs(rng() % 12);
    for (Duration& x : xs) x = duration();
    return xs;
  };
  for (int t = 0; t < 2000; ++t) {
    analysis::Provenance p;
    p.name = name('m');
    p.id = static_cast<CanId>(rng() % 0x20000000);
    p.result.diverged = rng() % 8 == 0;
    p.result.schedulable = rng() % 2 == 0;
    p.result.wcrt = duration();
    p.result.deadline = duration();
    p.result.busy_period = duration();
    p.result.instances = static_cast<std::int64_t>(rng() % 50);
    p.result.fixedpoint_iterations = static_cast<std::int64_t>(rng() % 5000);
    p.blocking_frame = rng() % 3 == 0 ? std::string{} : name('b');
    p.bus_blocking = duration();
    p.intra_node_blocking = duration();
    p.critical_instance = static_cast<std::int64_t>(rng() % 10);
    p.critical_window = duration();
    p.preceding_instances = duration();
    for (std::size_t k = rng() % 6; k > 0; --k) {
      analysis::InterferenceShare s;
      s.name = name('i');
      s.offset_group = rng() % 3 == 0;
      if (s.offset_group) s.members.resize(rng() % 5);
      s.preemptions = static_cast<std::int64_t>(rng() % 100);
      s.contribution = duration();
      p.interference.push_back(std::move(s));
    }
    p.interference_total = duration();
    p.error_overhead = duration();
    p.own_cost = duration();
    p.arrival_credit = duration();
    p.busy_iterates = iterates();
    p.window_iterates = iterates();
    ASSERT_EQ(analysis::provenance_to_text(p), printf_provenance_text(p)) << "provenance " << t;
  }
}

TEST(ProvenanceDiverged, OverloadedBusExplainsWithoutDecomposing) {
  PowertrainConfig wl;
  wl.seed = 9;
  wl.message_count = 24;
  wl.ecu_count = 4;
  wl.target_utilization = 0.55;
  KMatrix km = generate_powertrain(wl);
  // Saturate: shrink every period far below sustainable load.
  for (auto& m : km.messages()) m.period = Duration::us(500);
  const CanRtaConfig cfg = worst_case_assumptions();
  const std::size_t index = km.priority_order().back();
  const analysis::Provenance p = analysis::explain_message(km, cfg, index);
  ASSERT_TRUE(p.result.diverged);
  EXPECT_TRUE(p.sum_check());  // Trivially true; must not crash or lie.
  EXPECT_NE(analysis::provenance_to_text(p).find("DIVERGED"), std::string::npos);
  EXPECT_NE(analysis::provenance_to_json(p).find("\"diverged\":true"), std::string::npos);
}

TEST(FindMessage, ResolvesNamesAndRejectsUnknown) {
  PowertrainConfig wl;
  wl.message_count = 8;
  wl.ecu_count = 3;
  const KMatrix km = generate_powertrain(wl);
  for (std::size_t i = 0; i < km.size(); ++i)
    EXPECT_EQ(analysis::find_message(km, km.messages()[i].name), std::optional{i});
  EXPECT_FALSE(analysis::find_message(km, "no-such-message").has_value());
}

}  // namespace
}  // namespace symcan
