// Reference-differential battery for the busy-period core: every
// production entry point must reproduce the naive per-message reference
// (reference_rta.hpp) bit for bit, in integer nanoseconds, across every
// assumption preset and a spread of seeded workloads. The core can only
// go wrong silently — by resolving an interference set differently,
// dropping a normalization or stopping the instance loop early — and
// every one of those shows up here as a field-level mismatch naming the
// seed, preset and message.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "reference_rta.hpp"
#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/ecu_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/analysis/rta_context.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

struct Preset {
  const char* name;
  CanRtaConfig cfg;
};

/// The five canonical assumption presets: the two Figure 5 framings, the
/// default, and the two single-switch ablations (offset-blind, fullCAN
/// queues) that flip which resolution branches run.
std::vector<Preset> presets() {
  std::vector<Preset> out;
  out.push_back({"default", CanRtaConfig{}});
  CanRtaConfig no_offsets;
  no_offsets.use_offsets = false;
  out.push_back({"no_offsets", no_offsets});
  out.push_back({"best_case", best_case_assumptions()});
  out.push_back({"worst_case", worst_case_assumptions()});
  CanRtaConfig no_queues = worst_case_assumptions();
  no_queues.model_controller_queues = false;
  out.push_back({"worst_case_no_queues", no_queues});
  return out;
}

/// Twenty seeded matrices spanning the workload axes the resolution
/// branches on: basicCAN senders (intra-node blocking), TimeTable offsets
/// with grid-snapped periods (bounded hyperperiods -> TtGroups built) and
/// with raw periods (unbounded -> offset-blind fallback), jitter bursts,
/// and utilizations up to divergence under the burst error model.
std::vector<KMatrix> seeded_matrices() {
  std::vector<KMatrix> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PowertrainConfig cfg;
    cfg.seed = seed;
    cfg.message_count = 16 + static_cast<int>(seed % 4) * 8;
    cfg.ecu_count = 4 + static_cast<int>(seed % 3);
    cfg.basic_can_fraction = (seed % 3 == 0) ? 0.5 : 0.2;
    cfg.target_utilization = 0.45 + 0.025 * static_cast<double>(seed % 10);
    KMatrix km = generate_powertrain(cfg);
    if (seed % 2 == 0) {
      // Offset-scheduled senders; even seeds snap periods so hyperperiods
      // stay bounded and TtGroups actually build, seeds divisible by 4
      // keep raw periods to force the group-build fallback.
      if (seed % 4 == 0) snap_periods(km, Duration::ms(5));
      assign_tt_offsets(km);
    }
    if (seed % 5 == 0) assume_jitter_fraction(km, 0.25);
    out.push_back(std::move(km));
  }
  return out;
}

void expect_result_eq(const MessageResult& ref, const MessageResult& got,
                      const std::string& where) {
  EXPECT_EQ(ref.name, got.name) << where;
  EXPECT_EQ(ref.id, got.id) << where;
  EXPECT_EQ(ref.wcrt.count_ns(), got.wcrt.count_ns()) << where;
  EXPECT_EQ(ref.bcrt.count_ns(), got.bcrt.count_ns()) << where;
  EXPECT_EQ(ref.deadline.count_ns(), got.deadline.count_ns()) << where;
  EXPECT_EQ(ref.blocking.count_ns(), got.blocking.count_ns()) << where;
  EXPECT_EQ(ref.busy_period.count_ns(), got.busy_period.count_ns()) << where;
  EXPECT_EQ(ref.instances, got.instances) << where;
  EXPECT_EQ(ref.fixedpoint_iterations, got.fixedpoint_iterations) << where;
  EXPECT_EQ(ref.schedulable, got.schedulable) << where;
  EXPECT_EQ(ref.diverged, got.diverged) << where;
}

/// solve_columnar() + the caller-side identity patch, as the analyzers
/// apply it.
MessageResult columnar_message(const analysis::ColumnarBus& bus, const KMatrix& km,
                               std::size_t i) {
  MessageResult r = analysis::solve_columnar(bus, i);
  r.name = km.messages()[i].name;
  r.id = km.messages()[i].id;
  return r;
}

std::string where(std::size_t matrix, const Preset& p, const KMatrix& km, std::size_t i) {
  return "seed matrix #" + std::to_string(matrix) + " preset " + p.name + " message " +
         km.messages()[i].name;
}

TEST(ColumnarDifferential, MessagesBitIdenticalAcrossSeedsAndPresets) {
  // Every per-message entry point against the reference: the packed
  // whole-bus path, the one-row context path, and the verdict explain
  // embeds.
  const auto matrices = seeded_matrices();
  std::size_t diverged_seen = 0;
  std::size_t groups_seen = 0;
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const KMatrix& km = matrices[mi];
    for (const Preset& p : presets()) {
      const analysis::ColumnarBus bus = analysis::pack_bus(km, p.cfg);
      ASSERT_EQ(bus.size(), km.size());
      groups_seen += bus.tt_groups.size();
      for (std::size_t i = 0; i < km.size(); ++i) {
        const MessageResult ref = reference::analyze_message(km, p.cfg, i);
        diverged_seen += ref.diverged ? 1 : 0;
        const std::string at = where(mi, p, km, i);
        expect_result_eq(ref, columnar_message(bus, km, i), "pack_bus " + at);
        expect_result_eq(
            ref, analysis::solve_message(analysis::build_message_context(km, p.cfg, i)),
            "build_message_context " + at);
        expect_result_eq(ref, analysis::explain_message(km, p.cfg, i).result, "explain " + at);
      }
    }
  }
  // The battery must actually reach the interesting branches; a workload
  // change that stops producing offset groups would silently weaken it.
  EXPECT_GT(groups_seen, 0u);
  SUCCEED() << "diverged verdicts covered: " << diverged_seen;
}

TEST(ColumnarDifferential, DivergedVerdictsMatchReference) {
  // The seeded battery rarely diverges, so an overloaded bus covers the
  // divergence exits: halving every period of a 70 % bus loads it to
  // ~140 %, and the lower-priority busy periods pass the horizon.
  PowertrainConfig wcfg;
  wcfg.seed = 4;
  wcfg.message_count = 24;
  wcfg.target_utilization = 0.7;
  KMatrix km = generate_powertrain(wcfg);
  for (auto& m : km.messages()) m.period = m.period / 2;
  std::size_t diverged = 0;
  for (Preset p : presets()) {
    p.cfg.horizon = Duration::ms(100);
    const analysis::ColumnarBus bus = analysis::pack_bus(km, p.cfg);
    for (std::size_t i = 0; i < km.size(); ++i) {
      const MessageResult ref = reference::analyze_message(km, p.cfg, i);
      diverged += ref.diverged ? 1 : 0;
      const std::string at = where(0, p, km, i);
      expect_result_eq(ref, columnar_message(bus, km, i), "pack_bus " + at);
      expect_result_eq(
          ref, analysis::solve_message(analysis::build_message_context(km, p.cfg, i)),
          "build_message_context " + at);
      expect_result_eq(ref, analysis::explain_message(km, p.cfg, i).result, "explain " + at);
    }
  }
  EXPECT_GT(diverged, 0u);
}

TEST(ColumnarDifferential, IncrementalColdAndWarmMatchReference) {
  // The cached analyzer: a cold run (one-row solves for the first
  // misses, then one whole-bus pack) and a warm run answered from the
  // cache, both against the reference.
  const auto matrices = seeded_matrices();
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const KMatrix& km = matrices[mi];
    for (const Preset& p : presets()) {
      analysis::IncrementalRta rta;
      const BusResult cold = rta.analyze(km, p.cfg);
      const BusResult warm = rta.analyze(km, p.cfg);
      ASSERT_EQ(cold.messages.size(), km.size());
      ASSERT_EQ(warm.messages.size(), km.size());
      for (std::size_t i = 0; i < km.size(); ++i) {
        const MessageResult ref = reference::analyze_message(km, p.cfg, i);
        expect_result_eq(ref, cold.messages[i], "cold " + where(mi, p, km, i));
        expect_result_eq(ref, warm.messages[i], "warm " + where(mi, p, km, i));
      }
      EXPECT_EQ(rta.stats().lookups(), static_cast<std::int64_t>(2 * km.size()));
    }
  }
}

TEST(ColumnarDifferential, EqualKeysHaveEqualReferenceVerdicts) {
  // The cache key must cover everything the verdict depends on: across
  // the whole battery, two messages sharing a fingerprint get the same
  // reference verdict (identity aside). Presets change the key through
  // the config switches and the error model, so sharing happens within a
  // preset — most often between structurally equal messages.
  std::map<std::tuple<std::uint64_t, std::uint64_t>, MessageResult> seen;
  std::size_t shared = 0;
  const auto matrices = seeded_matrices();
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const KMatrix& km = matrices[mi];
    for (const Preset& p : presets()) {
      const std::vector<analysis::ContextKey> keys = analysis::bus_fingerprints(km, p.cfg);
      for (std::size_t i = 0; i < km.size(); ++i) {
        MessageResult ref = reference::analyze_message(km, p.cfg, i);
        ref.name.clear();
        ref.id = 0;
        const auto [it, fresh] = seen.emplace(std::make_tuple(keys[i].a, keys[i].b), ref);
        if (fresh) continue;
        ++shared;
        expect_result_eq(it->second, ref, "shared key at " + where(mi, p, km, i));
      }
    }
  }
  EXPECT_GT(shared, 0u);
}

TEST(ColumnarDifferential, PublicAnalyzeMatchesPerMessageAdapter) {
  // CanRta::analyze() (whole-bus pack) and analyze_message() (one-row
  // context) against the reference.
  for (std::uint64_t seed : {3u, 8u, 15u}) {
    PowertrainConfig wcfg;
    wcfg.seed = seed;
    wcfg.message_count = 32;
    KMatrix km = generate_powertrain(wcfg);
    if (seed == 8u) {
      snap_periods(km, Duration::ms(5));
      assign_tt_offsets(km);
    }
    for (const Preset& p : presets()) {
      const CanRta rta{km, p.cfg};
      const BusResult whole = rta.analyze();
      ASSERT_EQ(whole.messages.size(), km.size());
      for (std::size_t i = 0; i < km.size(); ++i) {
        const std::string at = "seed " + std::to_string(seed) + " preset " + p.name +
                               " message " + km.messages()[i].name;
        const MessageResult ref = reference::analyze_message(km, p.cfg, i);
        expect_result_eq(ref, whole.messages[i], "analyze " + at);
        expect_result_eq(ref, rta.analyze_message(i), "analyze_message " + at);
      }
    }
  }
}

TEST(ColumnarDifferential, ExplainStillResumsExactly) {
  // Provenance runs the traced solve; its embedded verdict must equal
  // the reference bit for bit and the decomposition must still re-sum to
  // the bound.
  PowertrainConfig wcfg;
  wcfg.seed = 7;
  wcfg.message_count = 24;
  KMatrix km = generate_powertrain(wcfg);
  snap_periods(km, Duration::ms(5));
  assign_tt_offsets(km);
  for (const Preset& p : presets()) {
    for (std::size_t i = 0; i < km.size(); ++i) {
      const analysis::Provenance prov = analysis::explain_message(km, p.cfg, i);
      EXPECT_TRUE(prov.sum_check())
          << "preset " << p.name << " message " << km.messages()[i].name;
      expect_result_eq(reference::analyze_message(km, p.cfg, i), prov.result,
                       std::string{"explain preset "} + p.name + " message " +
                           km.messages()[i].name);
    }
  }
}

TEST(ColumnarDifferential, PerCallErrorModelOverloadMatchesRepack) {
  // The grid-sweep overload swaps the error model per solve; it must
  // equal the reference under that model, as a full repack does.
  PowertrainConfig wcfg;
  wcfg.seed = 11;
  wcfg.message_count = 24;
  const KMatrix km = generate_powertrain(wcfg);
  CanRtaConfig base = worst_case_assumptions();
  const analysis::ColumnarBus bus = analysis::pack_bus(km, base);
  for (const Duration gap : {Duration::ms(1), Duration::ms(10), Duration::s(1)}) {
    const SporadicErrors errors{gap};
    CanRtaConfig swapped = base;
    swapped.errors = std::make_shared<SporadicErrors>(gap);
    const analysis::ColumnarBus repacked = analysis::pack_bus(km, swapped);
    for (std::size_t i = 0; i < km.size(); ++i) {
      const std::string at =
          "gap " + std::to_string(gap.count_ns()) + "ns message " + km.messages()[i].name;
      MessageResult ref = reference::analyze_message(km, base, i, errors);
      ref.name.clear();
      ref.id = 0;
      expect_result_eq(ref, analysis::solve_columnar(bus, i, errors), "per-call " + at);
      expect_result_eq(ref, analysis::solve_columnar(repacked, i), "repacked " + at);
    }
  }
}

/// Seeded ECU task sets spanning the scheduling classes: ISRs,
/// preemptive and cooperative tasks, segments, OS overhead and jitter.
std::vector<Task> seeded_tasks(std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  };
  const std::size_t count = 4 + seed % 5;
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    Task t;
    t.name = "t" + std::to_string(i);
    const std::uint64_t r = next();
    t.sched = (r % 7 == 0)   ? SchedClass::kInterrupt
              : (r % 3 == 0) ? SchedClass::kCooperativeTask
                             : SchedClass::kPreemptiveTask;
    t.priority = static_cast<int>(i);
    const Duration period = Duration::ms(2 + static_cast<std::int64_t>(next() % 40));
    t.wcet = Duration::us(100 + static_cast<std::int64_t>(next() % 2000));
    t.bcet = t.wcet / 2;
    if (next() % 2 == 0) t.max_segment = t.wcet / 3;
    if (next() % 3 == 0) t.os_overhead = Duration::us(20);
    const Duration jitter =
        (next() % 2 == 0) ? Duration::us(static_cast<std::int64_t>(next() % 3000))
                          : Duration::zero();
    t.activation = EventModel::periodic_jitter(period, jitter);
    t.deadline = (next() % 4 == 0) ? Duration::infinite() : period;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

TEST(ColumnarDifferential, EcuAnalyzeMatchesPerTaskAdapter) {
  // EcuRta::analyze() runs the columnar task pack; analyze_task() solves
  // one task at a time. The preemptive ECU analysis is outside the CAN
  // core, so its two paths are still pinned to each other.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const EcuRta rta{seeded_tasks(seed), Duration::s(1)};
    const EcuResult whole = rta.analyze();
    for (std::size_t i = 0; i < whole.tasks.size(); ++i) {
      const TaskResult legacy = rta.analyze_task(i);
      const TaskResult& col = whole.tasks[i];
      const std::string where = "seed " + std::to_string(seed) + " task " + legacy.name;
      EXPECT_EQ(legacy.name, col.name) << where;
      EXPECT_EQ(legacy.wcrt.count_ns(), col.wcrt.count_ns()) << where;
      EXPECT_EQ(legacy.bcrt.count_ns(), col.bcrt.count_ns()) << where;
      EXPECT_EQ(legacy.deadline.count_ns(), col.deadline.count_ns()) << where;
      EXPECT_EQ(legacy.blocking.count_ns(), col.blocking.count_ns()) << where;
      EXPECT_EQ(legacy.busy_period.count_ns(), col.busy_period.count_ns()) << where;
      EXPECT_EQ(legacy.instances, col.instances) << where;
      EXPECT_EQ(legacy.fixedpoint_iterations, col.fixedpoint_iterations) << where;
      EXPECT_EQ(legacy.schedulable, col.schedulable) << where;
      EXPECT_EQ(legacy.diverged, col.diverged) << where;
    }
  }
}

}  // namespace
}  // namespace symcan
