// IncrementalRta contract: a cache hit must be indistinguishable from a
// fresh analysis, bit for bit, in every MessageResult field — iteration
// counts included. These are the targeted unit tests behind the fuzzed
// differential harness (tests/integration/rta_cache_differential_test.cpp):
// equality across assumption presets, agreement of the three fingerprint
// entry points, partial reuse after an ID swap, LRU bounding, and the
// disabled-cache degradation path.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "reference_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/rta_context.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix test_matrix(std::uint64_t seed = 11, int messages = 24, double util = 0.55) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = messages;
  cfg.ecu_count = 4;
  cfg.target_utilization = util;
  return generate_powertrain(cfg);
}

/// Field-by-field equality of two whole-bus results. Any difference is a
/// cache soundness bug, so everything the solver writes is compared.
void expect_identical(const BusResult& a, const BusResult& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  EXPECT_EQ(a.utilization, b.utilization);
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    const MessageResult& x = a.messages[i];
    const MessageResult& y = b.messages[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.wcrt, y.wcrt);
    EXPECT_EQ(x.bcrt, y.bcrt);
    EXPECT_EQ(x.deadline, y.deadline);
    EXPECT_EQ(x.blocking, y.blocking);
    EXPECT_EQ(x.busy_period, y.busy_period);
    EXPECT_EQ(x.instances, y.instances);
    EXPECT_EQ(x.fixedpoint_iterations, y.fixedpoint_iterations);
    EXPECT_EQ(x.schedulable, y.schedulable);
    EXPECT_EQ(x.diverged, y.diverged);
  }
}

struct CfgParam {
  const char* label;
  bool offsets;      ///< Assign a TimeTable schedule before analyzing.
  CanRtaConfig (*make)();
};
void PrintTo(const CfgParam& p, std::ostream* os) { *os << p.label; }

CanRtaConfig sporadic_assumptions() {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.errors = std::make_shared<SporadicErrors>(Duration::ms(40), 1);
  cfg.deadline_override.reset();
  return cfg;
}

CanRtaConfig no_queue_assumptions() {
  CanRtaConfig cfg = best_case_assumptions();
  cfg.model_controller_queues = false;
  return cfg;
}

CanRtaConfig offset_blind_assumptions() {
  CanRtaConfig cfg = worst_case_assumptions();
  cfg.use_offsets = false;
  return cfg;
}

class IncrementalRtaConfigs : public ::testing::TestWithParam<CfgParam> {
 protected:
  KMatrix matrix() const {
    KMatrix km = test_matrix();
    if (GetParam().offsets) {
      snap_periods(km, Duration::ms(1));
      assign_tt_offsets(km);
    }
    assume_jitter_fraction(km, 0.2, /*override_known=*/false);
    return km;
  }
  CanRtaConfig config() const { return GetParam().make(); }
};

TEST_P(IncrementalRtaConfigs, ColdAndWarmRunsMatchFreshAnalysisBitExactly) {
  const KMatrix km = matrix();
  const CanRtaConfig cfg = config();
  const BusResult fresh = CanRta{km, cfg}.analyze();

  // Two messages may legitimately share a context (and then a verdict);
  // the cold run misses once per *distinct* key, not once per message.
  std::unordered_set<analysis::ContextKey, analysis::ContextKeyHash> unique;
  for (const analysis::ContextKey& k : analysis::bus_fingerprints(km, cfg)) unique.insert(k);

  IncrementalRta rta;
  const BusResult cold = rta.analyze(km, cfg);
  expect_identical(cold, fresh);
  EXPECT_EQ(rta.stats().misses, static_cast<std::int64_t>(unique.size()));
  EXPECT_EQ(rta.stats().lookups(), static_cast<std::int64_t>(km.size()));

  const BusResult warm = rta.analyze(km, cfg);
  expect_identical(warm, fresh);
  EXPECT_EQ(rta.stats().misses, static_cast<std::int64_t>(unique.size()));
  EXPECT_EQ(rta.stats().lookups(), static_cast<std::int64_t>(2 * km.size()));
  EXPECT_GE(rta.stats().hit_rate(), 0.5);
}

TEST_P(IncrementalRtaConfigs, FingerprintEntryPointsAgree) {
  // The single-message and whole-bus lookup paths must produce the same
  // key — otherwise hits and misses would depend on which entry point
  // filled the cache — and a shared key must mean a shared verdict: two
  // messages with equal keys get equal reference verdicts.
  const KMatrix km = matrix();
  const CanRtaConfig cfg = config();
  const std::vector<analysis::ContextKey> batch = analysis::bus_fingerprints(km, cfg);
  ASSERT_EQ(batch.size(), km.size());
  std::unordered_map<analysis::ContextKey, MessageResult, analysis::ContextKeyHash> verdicts;
  for (std::size_t i = 0; i < km.size(); ++i) {
    SCOPED_TRACE(km.messages()[i].name);
    EXPECT_EQ(analysis::message_fingerprint(km, cfg, i), batch[i]);
    const MessageResult ref = reference::analyze_message(km, cfg, i);
    const auto [it, fresh] = verdicts.emplace(batch[i], ref);
    if (fresh) continue;
    EXPECT_EQ(it->second.wcrt, ref.wcrt);
    EXPECT_EQ(it->second.bcrt, ref.bcrt);
    EXPECT_EQ(it->second.deadline, ref.deadline);
    EXPECT_EQ(it->second.blocking, ref.blocking);
    EXPECT_EQ(it->second.busy_period, ref.busy_period);
    EXPECT_EQ(it->second.instances, ref.instances);
    EXPECT_EQ(it->second.fixedpoint_iterations, ref.fixedpoint_iterations);
    EXPECT_EQ(it->second.schedulable, ref.schedulable);
    EXPECT_EQ(it->second.diverged, ref.diverged);
  }
}

TEST_P(IncrementalRtaConfigs, SingleMessageEntryPointMatchesFresh) {
  const KMatrix km = matrix();
  const CanRtaConfig cfg = config();
  const CanRta fresh{km, cfg};
  IncrementalRta rta;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then fully cached
    for (std::size_t i = 0; i < km.size(); ++i) {
      SCOPED_TRACE(km.messages()[i].name);
      const MessageResult a = rta.analyze_message(km, cfg, i);
      const MessageResult b = fresh.analyze_message(i);
      EXPECT_EQ(a.wcrt, b.wcrt);
      EXPECT_EQ(a.bcrt, b.bcrt);
      EXPECT_EQ(a.blocking, b.blocking);
      EXPECT_EQ(a.fixedpoint_iterations, b.fixedpoint_iterations);
      EXPECT_EQ(a.schedulable, b.schedulable);
    }
  }
  EXPECT_GE(rta.stats().hits, static_cast<std::int64_t>(km.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Assumptions, IncrementalRtaConfigs,
    ::testing::Values(CfgParam{"best_case", false, &best_case_assumptions},
                      CfgParam{"worst_case", false, &worst_case_assumptions},
                      CfgParam{"sporadic_errors", false, &sporadic_assumptions},
                      CfgParam{"no_controller_queues", false, &no_queue_assumptions},
                      CfgParam{"tt_offsets", true, &worst_case_assumptions},
                      CfgParam{"tt_offsets_blind", true, &offset_blind_assumptions}),
    [](const ::testing::TestParamInfo<CfgParam>& info) { return info.param.label; });

TEST(IncrementalRtaTest, IdSwapOnlyResolvesChangedContexts) {
  // Two GA neighbours differing in one priority swap share interference
  // contexts for every message outside the affected span: the second
  // analysis must miss exactly on the keys the swap changed.
  const KMatrix km = test_matrix();
  const CanRtaConfig cfg = worst_case_assumptions();
  IncrementalRta rta;
  rta.analyze(km, cfg);

  PriorityOrder order = current_order(km);
  ASSERT_GE(order.size(), 6u);
  std::swap(order[2], order[3]);
  const KMatrix swapped = apply_priority_order(km, order);

  std::unordered_set<analysis::ContextKey, analysis::ContextKeyHash> seen;
  for (const analysis::ContextKey& k : analysis::bus_fingerprints(km, cfg)) seen.insert(k);
  std::size_t expected_new = 0;
  for (const analysis::ContextKey& k : analysis::bus_fingerprints(swapped, cfg))
    if (seen.insert(k).second) ++expected_new;

  const RtaCacheStats before = rta.stats();
  expect_identical(rta.analyze(swapped, cfg), CanRta{swapped, cfg}.analyze());
  const RtaCacheStats after = rta.stats();
  EXPECT_EQ(after.misses - before.misses, static_cast<std::int64_t>(expected_new));
  // The swap must not invalidate the whole bus — most verdicts are reused.
  EXPECT_LT(expected_new, km.size());
  EXPECT_GT(after.hits - before.hits, 0);
}

TEST(IncrementalRtaTest, StructurallyEqualMatrixIsRelabeledNotResolved) {
  // Reassigning IDs without changing relative priorities, costs or event
  // models yields structurally identical contexts: the second matrix is
  // answered entirely from cache, under its own names and IDs.
  const KMatrix km = test_matrix(7, 16, 0.45);
  const CanRtaConfig cfg = best_case_assumptions();
  IncrementalRta rta;
  rta.analyze(km, cfg);
  const std::int64_t misses = rta.stats().misses;

  const KMatrix relabeled = apply_priority_order(km, current_order(km), /*base=*/0x300);
  const BusResult res = rta.analyze(relabeled, cfg);
  EXPECT_EQ(rta.stats().misses, misses) << "relabeling must not cause a single re-solve";
  expect_identical(res, CanRta{relabeled, cfg}.analyze());
  for (std::size_t i = 0; i < relabeled.size(); ++i) {
    EXPECT_EQ(res.messages[i].id, relabeled.messages()[i].id);
    EXPECT_EQ(res.messages[i].name, relabeled.messages()[i].name);
  }
}

TEST(IncrementalRtaTest, LruEvictionBoundsSizeWithoutCorruptingResults) {
  const KMatrix km = test_matrix();
  const CanRtaConfig cfg = worst_case_assumptions();
  RtaCacheConfig cache;
  cache.capacity = 8;
  IncrementalRta rta{cache};
  const BusResult fresh = CanRta{km, cfg}.analyze();
  expect_identical(rta.analyze(km, cfg), fresh);
  EXPECT_LE(rta.size(), cache.capacity);
  EXPECT_GT(rta.stats().evictions, 0);
  // A matrix larger than the capacity thrashes — correctness must hold
  // even when every lookup misses.
  expect_identical(rta.analyze(km, cfg), fresh);
  EXPECT_LE(rta.size(), cache.capacity);
}

TEST(IncrementalRtaTest, DisabledCacheDegradesToPlainSolveBitExactly) {
  const KMatrix km = test_matrix();
  const CanRtaConfig cfg = worst_case_assumptions();
  RtaCacheConfig off;
  off.enabled = false;
  IncrementalRta rta{off};
  const BusResult fresh = CanRta{km, cfg}.analyze();
  expect_identical(rta.analyze(km, cfg), fresh);
  expect_identical(rta.analyze(km, cfg), fresh);
  EXPECT_EQ(rta.size(), 0u);
  EXPECT_EQ(rta.stats().lookups(), 0);
}

TEST(IncrementalRtaTest, ClearDropsEntriesButKeepsLifetimeStats) {
  const KMatrix km = test_matrix(3, 8, 0.30);
  const CanRtaConfig cfg = best_case_assumptions();
  IncrementalRta rta;
  rta.analyze(km, cfg);
  EXPECT_GT(rta.size(), 0u);
  EXPECT_LE(rta.size(), km.size());
  const std::int64_t first_misses = rta.stats().misses;
  rta.clear();
  EXPECT_EQ(rta.size(), 0u);
  EXPECT_EQ(rta.stats().misses, first_misses);
  rta.analyze(km, cfg);
  EXPECT_EQ(rta.stats().misses, 2 * first_misses);
}

TEST(IncrementalRtaTest, ZeroCapacityIsRejected) {
  RtaCacheConfig cfg;
  cfg.capacity = 0;
  EXPECT_THROW(IncrementalRta{cfg}, std::invalid_argument);
}

TEST(IncrementalRtaTest, NullErrorModelIsRejected) {
  const KMatrix km = test_matrix(3, 8, 0.30);
  CanRtaConfig cfg;
  cfg.errors = nullptr;
  IncrementalRta rta;
  EXPECT_THROW(rta.analyze(km, cfg), std::invalid_argument);
  EXPECT_THROW(rta.analyze_message(km, cfg, 0), std::invalid_argument);
}

TEST(IncrementalRtaTest, ConfigChangesNeverHitStaleEntries) {
  // Flipping any analysis switch must change the affected keys: the same
  // matrix under different assumptions may share no verdicts. (Coarse
  // guard; the differential harness fuzzes the full config space.)
  const KMatrix km = test_matrix();
  IncrementalRta rta;
  const CanRtaConfig wc = worst_case_assumptions();
  const BusResult a = rta.analyze(km, wc);
  expect_identical(rta.analyze(km, best_case_assumptions()),
                   CanRta{km, best_case_assumptions()}.analyze());
  CanRtaConfig no_offsets = wc;
  no_offsets.use_offsets = false;
  expect_identical(rta.analyze(km, no_offsets), CanRta{km, no_offsets}.analyze());
  // And the original assumptions still answer from cache, unchanged.
  const RtaCacheStats before = rta.stats();
  expect_identical(rta.analyze(km, wc), a);
  EXPECT_EQ(rta.stats().misses, before.misses);
}

}  // namespace
}  // namespace symcan
