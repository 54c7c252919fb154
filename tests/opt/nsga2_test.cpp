#include "symcan/opt/nsga2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/opt/evolution.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix small_matrix() {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.message_count = 20;
  cfg.ecu_count = 4;
  return generate_powertrain(cfg);
}

GaConfig quick_config() {
  GaConfig cfg;
  cfg.population = 16;
  cfg.generations = 8;
  cfg.rta = worst_case_assumptions();
  cfg.eval_fractions = {0.25};
  return cfg;
}

TEST(Nsga2, DeterministicForSameSeed) {
  const KMatrix km = small_matrix();
  const GaResult a = optimize_priorities_nsga2(km, quick_config());
  const GaResult b = optimize_priorities_nsga2(km, quick_config());
  EXPECT_EQ(a.best.order, b.best.order);
  EXPECT_EQ(a.best.misses, b.best.misses);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Nsga2, NeverWorseThanSeeds) {
  const KMatrix km = small_matrix();
  GaConfig cfg = quick_config();
  cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
  const GaResult res = optimize_priorities_nsga2(km, cfg);
  for (const auto& seed : cfg.seeds)
    EXPECT_LE(res.best.misses, evaluate_order(km, seed, cfg).misses);
}

TEST(Nsga2, ReachesZeroLossAt25OnTheCaseStudy) {
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  GaConfig cfg = quick_config();
  cfg.population = 32;
  cfg.generations = 25;
  cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
  const GaResult res = optimize_priorities_nsga2(km, cfg);
  EXPECT_EQ(res.best.misses, 0);
  KMatrix opt = apply_priority_order(km, res.best.order);
  assume_jitter_fraction(opt, 0.25, true);
  EXPECT_TRUE((CanRta{opt, worst_case_assumptions()}.analyze().all_schedulable()));
}

TEST(Nsga2, ChampionHistoryMonotone) {
  const GaResult res = optimize_priorities_nsga2(small_matrix(), quick_config());
  for (std::size_t i = 1; i < res.best_misses_history.size(); ++i)
    EXPECT_LE(res.best_misses_history[i], res.best_misses_history[i - 1]);
}

TEST(Nsga2, ParetoFrontNondominatedAndSorted) {
  const GaResult res = optimize_priorities_nsga2(small_matrix(), quick_config());
  ASSERT_FALSE(res.pareto.empty());
  for (const auto& a : res.pareto)
    for (const auto& b : res.pareto) {
      const bool dom = (a.misses <= b.misses && a.robustness_cost <= b.robustness_cost) &&
                       (a.misses < b.misses || a.robustness_cost < b.robustness_cost);
      EXPECT_FALSE(dom);
    }
  EXPECT_EQ(res.best.misses, res.pareto.front().misses);
}

TEST(Nsga2, ResultIsPermutation) {
  const GaResult res = optimize_priorities_nsga2(small_matrix(), quick_config());
  PriorityOrder sorted = res.best.order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Nsga2, RejectsBadConfig) {
  GaConfig cfg = quick_config();
  cfg.population = 2;
  EXPECT_THROW(optimize_priorities_nsga2(small_matrix(), cfg), std::invalid_argument);
  cfg = quick_config();
  cfg.eval_fractions.clear();
  EXPECT_THROW(optimize_priorities_nsga2(small_matrix(), cfg), std::invalid_argument);
}

TEST(Nsga2, ComparableToSpea2OnTheSameBudget) {
  // Same evaluation budget: neither optimizer should be categorically
  // worse on the primary objective (both reach the target in practice;
  // assert within one miss of each other to stay robust).
  const KMatrix km = small_matrix();
  GaConfig cfg = quick_config();
  cfg.population = 24;
  cfg.generations = 12;
  cfg.archive = 12;
  cfg.seeds = {current_order(km)};
  const GaResult spea2 = optimize_priorities(km, cfg);
  const GaResult nsga2 = optimize_priorities_nsga2(km, cfg);
  EXPECT_NEAR(spea2.best.misses, nsga2.best.misses, 1.0);
}

TEST(Nsga2Selection, CrowdingIsMeasuredWithinEachFront) {
  // Fronts: {(0,0)}, {(1,4), (5,2), (8,1)}, {(9,3)}; two of the middle
  // front survive. Within that front (1,4) and (8,1) are the boundary
  // points (infinite crowding distance) and (5,2) is interior, so Deb's
  // per-front crowding keeps the boundary. Crowding measured over the
  // whole pool would find (8,1) hemmed in by (9,3) of the next front and
  // keep (5,2) instead.
  auto ind = [](double misses, double cost) { return GaIndividual{{}, misses, cost}; };
  const std::vector<GaIndividual> pool = {ind(0, 0), ind(1, 4), ind(9, 3), ind(8, 1), ind(5, 2)};
  const std::vector<GaIndividual> kept = opt_detail::nsga2_survivors(pool, 3);
  ASSERT_EQ(kept.size(), 3u);
  const std::pair<double, double> want[] = {{0, 0}, {1, 4}, {8, 1}};
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].misses, want[i].first) << "#" << i;
    EXPECT_EQ(kept[i].robustness_cost, want[i].second) << "#" << i;
  }
}

}  // namespace
}  // namespace symcan
