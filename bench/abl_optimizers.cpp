// Ablation — priority-assignment strategies (Section 4.3): the original
// (historically grown) ID assignment vs Deadline-Monotonic, Audsley's
// optimal assignment, robust priority assignment, the SPEA2-style genetic
// optimizer (with and without the RTA cache) and NSGA-II, across the
// jitter sweep under worst-case assumptions.

#include <chrono>

#include "common.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/opt/nsga2.hpp"
#include "symcan/sensitivity/sweep.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::bench {
namespace {

void reproduce(int jobs) {
  const KMatrix km = case_study_matrix();
  const CanRtaConfig rta = worst_case_assumptions();
  std::cout << "parallelism: " << ParallelExecutor::resolve(jobs) << " worker thread(s)\n";

  struct Candidate {
    std::string label;
    KMatrix matrix;
    double wall_ms;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"original K-Matrix IDs", km, 0.0});

  auto timed = [&](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count()) /
        1000.0;
    return std::make_pair(std::move(result), ms);
  };

  {
    auto [order, ms] = timed([&] { return deadline_monotonic_order(km); });
    candidates.push_back({"deadline monotonic", apply_priority_order(km, order), ms});
  }
  {
    auto [order, ms] = timed([&] { return audsley_order(km, rta, 0.25); });
    if (order) candidates.push_back({"Audsley OPA @25% jitter", apply_priority_order(km, *order), ms});
  }
  {
    auto [order, ms] = timed([&] { return robust_priority_order(km, rta, 0.0); });
    if (order)
      candidates.push_back({"Robust PA (max tolerance)", apply_priority_order(km, *order), ms});
  }
  {
    GaConfig cfg;
    cfg.rta = rta;
    cfg.eval_fractions = {0.25, 0.40, 0.60};
    cfg.population = 32;
    cfg.archive = 16;
    cfg.generations = 25;
    cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
    cfg.parallelism = jobs;
    GaConfig uncached = cfg;
    uncached.cache.enabled = false;
    auto [res, ms] = timed([&] { return optimize_priorities(km, cfg); });
    auto [res_uncached, ms_uncached] = timed([&] { return optimize_priorities(km, uncached); });
    const bool identical = res.best.order == res_uncached.best.order &&
                           res.best.misses == res_uncached.best.misses &&
                           res.best.robustness_cost == res_uncached.best.robustness_cost;
    std::cout << strprintf("GA rta-cache ablation: on %.1f ms, off %.1f ms (%.2fx), %s\n", ms,
                           ms_uncached, ms > 0 ? ms_uncached / ms : 0.0,
                           identical ? "identical result" : "RESULT MISMATCH");
    candidates.push_back({"SPEA2-style GA", apply_priority_order(km, res.best.order), ms});
  }
  {
    GaConfig cfg;
    cfg.rta = rta;
    cfg.eval_fractions = {0.25, 0.40, 0.60};
    cfg.population = 32;
    cfg.generations = 25;
    cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
    cfg.parallelism = jobs;
    auto [res, ms] = timed([&] { return optimize_priorities_nsga2(km, cfg); });
    candidates.push_back({"NSGA-II", apply_priority_order(km, res.best.order), ms});
  }

  banner("Loss vs jitter per assignment strategy (worst-case assumptions)");
  TextTable t;
  std::vector<std::string> head{"jitter"};
  for (const auto& c : candidates) head.push_back(c.label);
  t.header(head);

  JitterSweepConfig sweep;
  sweep.rta = rta;
  sweep.parallelism = jobs;
  std::vector<JitterSweepResult> sweeps;
  for (const auto& c : candidates) sweeps.push_back(sweep_jitter(c.matrix, sweep));
  for (std::size_t i = 0; i < sweeps[0].fractions.size(); ++i) {
    std::vector<std::string> row{pct(sweeps[0].fractions[i])};
    for (const auto& s : sweeps) row.push_back(pct(s.miss_fraction(i)));
    t.row(row);
  }
  t.print(std::cout);

  TextTable t2;
  t2.header({"strategy", "wall time"});
  for (const auto& c : candidates) t2.row({c.label, strprintf("%.1f ms", c.wall_ms)});
  t2.print(std::cout);
  std::cout << "Audsley is feasibility-optimal at its target point; the GA trades a\n"
               "little runtime for multi-objective robustness across the sweep.\n";
}

void BM_DeadlineMonotonic(benchmark::State& state) {
  const KMatrix km = case_study_matrix();
  for (auto _ : state) benchmark::DoNotOptimize(deadline_monotonic_order(km));
}
BENCHMARK(BM_DeadlineMonotonic);

void BM_AudsleyAssignment(benchmark::State& state) {
  const KMatrix km = case_study_matrix();
  const CanRtaConfig rta = worst_case_assumptions();
  for (auto _ : state) benchmark::DoNotOptimize(audsley_order(km, rta, 0.25));
}
BENCHMARK(BM_AudsleyAssignment);

void BM_GaOptimize(benchmark::State& state) {
  const KMatrix km = case_study_matrix();
  GaConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.eval_fractions = {0.25};
  cfg.population = 16;
  cfg.archive = 8;
  // A scaled-down `symcan optimize` (25 generations by default): long
  // enough for the archive to converge, which is the regime the RTA cache
  // ablation (cache=0 vs cache=1) is meant to measure.
  cfg.generations = 10;
  // Seeded like `symcan optimize`: the GA then refines around the known
  // orders instead of wandering a random population.
  cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
  cfg.parallelism = static_cast<int>(state.range(0));
  cfg.cache.enabled = state.range(1) != 0;
  for (auto _ : state) benchmark::DoNotOptimize(optimize_priorities(km, cfg));
}
BENCHMARK(BM_GaOptimize)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->ArgNames({"jobs", "cache"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace symcan::bench

int main(int argc, char** argv) {
  symcan::bench::json_arg(argc, argv);
  symcan::bench::reproduce(symcan::bench::jobs_arg(argc, argv));
  return symcan::bench::run_benchmarks(argc, argv);
}
