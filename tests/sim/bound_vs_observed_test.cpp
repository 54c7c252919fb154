// Bound-vs-observed report: over seeded workloads whose simulation
// respects the analysis assumptions, compare_bound_vs_observed must find
// zero violations (observed <= bound for every message — the soundness
// oracle in report form), and the report's derived quantities (pessimism
// gap, tightness) must be consistent.

#include "symcan/sim/validation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>

#include "symcan/analysis/error_model.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

struct Param {
  std::uint64_t seed;
  double jitter_fraction;
  bool errors;
};

class BoundVsObserved : public ::testing::TestWithParam<Param> {};

TEST_P(BoundVsObserved, NoMessageObservedAboveItsBound) {
  const Param p = GetParam();
  PowertrainConfig wl;
  wl.seed = p.seed;
  wl.message_count = 24;
  wl.ecu_count = 4;
  wl.target_utilization = 0.55;
  KMatrix km = generate_powertrain(wl);
  assume_jitter_fraction(km, p.jitter_fraction, /*override_known=*/true);

  CanRtaConfig rta;
  rta.worst_case_stuffing = true;  // dominates the sampled stuffing
  rta.deadline_override = DeadlinePolicy::kPeriod;
  if (p.errors) rta.errors = std::make_shared<SporadicErrors>(Duration::ms(40));

  SimConfig sim;
  sim.duration = Duration::s(5);
  sim.seed = p.seed * 977 + 13;
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  sim.record_percentiles = true;
  if (p.errors) sim.errors = SimErrorProcess::sporadic(Duration::ms(40));

  const BusResult bounds = CanRta{km, rta}.analyze();
  const SimResult observed = simulate(km, sim);
  const BoundValidation v = compare_bound_vs_observed(bounds, observed);

  EXPECT_EQ(v.violations, 0u);
  EXPECT_TRUE(v.ok());
  ASSERT_EQ(v.messages.size(), km.size());
  for (const BoundObservation& o : v.messages) {
    if (o.diverged || o.completions == 0) continue;
    EXPECT_LE(o.observed_max, o.bound) << o.name;
    EXPECT_LE(o.observed_p99, o.observed_max) << o.name;
    EXPECT_GE(o.gap(), Duration::zero()) << o.name;
    EXPECT_GE(o.tightness(), 0.0) << o.name;
    EXPECT_LE(o.tightness(), 1.0) << o.name;
  }
  EXPECT_GT(v.worst_tightness, 0.0);
  EXPECT_LE(v.worst_tightness, 1.0);

  const std::string text = validation_to_text(v);
  EXPECT_NE(text.find("0 violations"), std::string::npos);
  EXPECT_EQ(text.find("VIOLATION"), std::string::npos);
  const std::string json = validation_to_json(v);
  EXPECT_NE(json.find("\"violations\":0"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Grid, BoundVsObserved,
                         ::testing::Values(Param{1, 0.0, false}, Param{2, 0.25, false},
                                           Param{3, 0.25, true}, Param{4, 0.40, true},
                                           Param{5, 0.10, false}, Param{6, 0.40, false}),
                         [](const ::testing::TestParamInfo<Param>& pi) {
                           return "s" + std::to_string(pi.param.seed) + "_j" +
                                  std::to_string(static_cast<int>(pi.param.jitter_fraction * 100)) +
                                  (pi.param.errors ? "_errors" : "_clean");
                         });

TEST(BoundVsObservedEdge, ViolationIsFlaggedWhenObservedExceedsBound) {
  // Synthesize a deliberately broken pairing by shrinking the analytic
  // bound below what a real simulation observed — the report must flag it.
  BusResult analysis;
  MessageResult m;
  m.name = "m";
  m.wcrt = Duration::us(10);
  m.diverged = false;
  analysis.messages.push_back(m);

  SimResult sim;
  MessageStats s;
  s.name = "m";
  s.completions = 1;
  s.wcrt_observed = Duration::us(20);
  sim.messages.push_back(s);

  const BoundValidation v = compare_bound_vs_observed(analysis, sim);
  ASSERT_EQ(v.messages.size(), 1u);
  EXPECT_TRUE(v.messages[0].violation);
  EXPECT_EQ(v.violations, 1u);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(validation_to_text(v).find("VIOLATION"), std::string::npos);
  EXPECT_NE(validation_to_json(v).find("\"violation\":true"), std::string::npos);
}

TEST(BoundVsObservedEdge, MissingAndDivergedMessagesCannotViolate) {
  BusResult analysis;
  MessageResult diverged;
  diverged.name = "d";
  diverged.wcrt = Duration::infinite();
  diverged.diverged = true;
  analysis.messages.push_back(diverged);
  MessageResult unseen;
  unseen.name = "u";
  unseen.wcrt = Duration::us(100);
  analysis.messages.push_back(unseen);

  const BoundValidation v = compare_bound_vs_observed(analysis, SimResult{});
  EXPECT_EQ(v.violations, 0u);
  EXPECT_TRUE(v.messages[0].gap().is_infinite());
  EXPECT_EQ(v.messages[1].completions, 0);
}

/// The printf layout validation_to_text had, kept here as the reference
/// for its byte identity (rows of up to 255 bytes).
std::string printf_validation_text(const BoundValidation& v) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "bound vs observed: %zu messages, %zu violations, worst tightness %.1f%%\n",
                v.messages.size(), v.violations, v.worst_tightness * 100.0);
  out += buf;
  std::snprintf(buf, sizeof buf, "%-20s %12s %12s %12s %12s %9s\n", "message", "bound",
                "observed max", "observed p99", "gap", "tight");
  out += buf;
  for (const BoundObservation& o : v.messages) {
    std::snprintf(buf, sizeof buf, "%-20s %12s %12s %12s %12s %8.1f%%%s\n", o.name.c_str(),
                  to_string(o.bound).c_str(), to_string(o.observed_max).c_str(),
                  to_string(o.observed_p99).c_str(), to_string(o.gap()).c_str(),
                  o.tightness() * 100.0,
                  o.violation ? "  <-- VIOLATION: sim exceeds analytic bound" : "");
    out += buf;
  }
  return out;
}

TEST(ValidationText, MatchesPrintfLayoutOnRandomReports) {
  std::mt19937_64 rng{0x5eed};
  std::uniform_int_distribution<int> rows{0, 6};
  std::uniform_int_distribution<int> name_len{0, 40};
  std::uniform_int_distribution<std::int64_t> ns{0, 5'000'000'000};
  for (int t = 0; t < 2000; ++t) {
    BusResult analysis;
    SimResult sim;
    const int n = rows(rng);
    for (int i = 0; i < n; ++i) {
      MessageResult r;
      r.name = std::string(static_cast<std::size_t>(name_len(rng)), 'a' + static_cast<char>(i));
      r.wcrt = rng() % 8 == 0 ? Duration::infinite() : Duration::ns(ns(rng) / (1 + rng() % 1000));
      r.diverged = r.wcrt.is_infinite();
      analysis.messages.push_back(r);
      if (rng() % 4 == 0) continue;  // never completed in the simulation
      MessageStats s;
      s.name = r.name;
      s.completions = 1 + static_cast<std::int64_t>(rng() % 100);
      s.wcrt_observed = Duration::ns(ns(rng) / (1 + rng() % 1000));
      sim.messages.push_back(s);
    }
    const BoundValidation v = compare_bound_vs_observed(analysis, sim);
    ASSERT_EQ(validation_to_text(v), printf_validation_text(v)) << "report " << t;
  }
}

TEST(ValidationText, LongNameKeepsWholeRow) {
  // The printf layout cut rows at 255 bytes, dropping the verdict marker
  // and the newline; every row must stay whole.
  BusResult analysis;
  MessageResult r;
  r.name = std::string(300, 'n');
  r.wcrt = Duration::us(10);
  analysis.messages.push_back(r);
  SimResult sim;
  MessageStats s;
  s.name = r.name;
  s.completions = 1;
  s.wcrt_observed = Duration::us(20);
  sim.messages.push_back(s);

  const std::string text = validation_to_text(compare_bound_vs_observed(analysis, sim));
  const std::string tail = "    200.0%  <-- VIOLATION: sim exceeds analytic bound\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find('\n' + r.name + "        10 us        20 us "), std::string::npos);
}

}  // namespace
}  // namespace symcan
