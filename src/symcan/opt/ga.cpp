#include "symcan/opt/ga.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "symcan/opt/evolution.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {

namespace {

using opt_detail::dominates;
using opt_detail::same_objectives;

double objective_distance(const GaIndividual& a, const GaIndividual& b) {
  const double d0 = a.misses - b.misses;
  const double d1 = a.robustness_cost - b.robustness_cost;
  return std::sqrt(d0 * d0 + d1 * d1);
}

/// SPEA2 fitness: raw dominance strength plus a k-nearest-neighbour
/// density term. Lower is better; nondominated individuals have F < 1.
std::vector<double> spea2_fitness(const std::vector<GaIndividual>& pool) {
  const std::size_t n = pool.size();
  std::vector<int> strength(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && dominates(pool[i], pool[j])) ++strength[i];

  std::vector<double> fitness(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && dominates(pool[j], pool[i])) raw += strength[j];
    // Density: 1 / (distance to k-th neighbour + 2).
    std::vector<double> dist;
    dist.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) dist.push_back(objective_distance(pool[i], pool[j]));
    const std::size_t k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    std::nth_element(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k), dist.end());
    const double density = 1.0 / (dist[k] + 2.0);
    fitness[i] = raw + density;
  }
  return fitness;
}

/// SPEA2 environmental selection: the `size` fittest of `pool`, fittest
/// first. The champion is re-injected if truncation lost its objective
/// pair, so the archive never forgets the best individual evaluated
/// (SPEA2 boundary preservation, simplified).
std::vector<GaIndividual> spea2_archive(const std::vector<GaIndividual>& pool, std::size_t size,
                                        const GaIndividual& champion) {
  const std::vector<double> fitness = spea2_fitness(pool);
  std::vector<GaIndividual> archive = opt_detail::stable_best(
      pool, size, [&](std::size_t a, std::size_t b) { return fitness[a] < fitness[b]; });
  if (std::none_of(archive.begin(), archive.end(),
                   [&](const GaIndividual& a) { return same_objectives(a, champion); }))
    archive.back() = champion;
  return archive;
}

}  // namespace

GaIndividual evaluate_order(const KMatrix& km, const PriorityOrder& order, const GaConfig& cfg,
                            IncrementalRta& rta) {
  GaIndividual ind;
  ind.order = order;
  double misses = 0;
  double cost = 0;
  std::size_t samples = 0;
  // Lexicographic weighting: misses at eval_fractions[0] outweigh any
  // number of misses at later (stress) fractions.
  double weight = 1.0;
  for (std::size_t k = 1; k < cfg.eval_fractions.size(); ++k) weight *= 1000.0;
  // Per-worker variant buffer: the reorder copy-assigns into it, so the
  // message strings and vectors keep their heap blocks across the
  // thousands of evaluations a GA run makes on this thread.
  static thread_local KMatrix variant{"", BitTiming{500'000}};
  for (const double f : cfg.eval_fractions) {
    // One matrix copy per evaluation point — reorder and jitter-edit in
    // the reused buffer rather than allocating a fresh matrix. The
    // ID rewrite preserves validity, so no re-validation here; callers
    // validate `km` once (CanRta/IncrementalRta do, and the optimizers
    // validate up front before turning per-call validation off).
    apply_priority_order_into(km, order, variant);
    assume_jitter_fraction(variant, f, cfg.override_known);
    // The config (and its ErrorModel shared_ptr) stays by const reference
    // all the way down — no per-individual CanRtaConfig copies on the hot
    // path, and cached verdicts short-circuit the fixed point entirely.
    const BusResult res = rta.analyze(variant, cfg.rta);
    misses += weight * static_cast<double>(res.miss_count());
    weight /= 1000.0;
    for (const auto& m : res.messages) {
      double ratio = cfg.ratio_cap;
      if (!m.wcrt.is_infinite() && !m.deadline.is_infinite() && m.deadline > Duration::zero()) {
        ratio = std::min(cfg.ratio_cap, static_cast<double>(m.wcrt.count_ns()) /
                                            static_cast<double>(m.deadline.count_ns()));
      }
      cost += ratio;
      ++samples;
    }
  }
  ind.misses = misses;
  ind.robustness_cost = samples > 0 ? cost / static_cast<double>(samples) : 0;
  return ind;
}

GaIndividual evaluate_order(const KMatrix& km, const PriorityOrder& order, const GaConfig& cfg) {
  IncrementalRta scratch{RtaCacheConfig{false, 1}};
  return evaluate_order(km, order, cfg, scratch);
}

GaResult optimize_priorities(const KMatrix& km, const GaConfig& cfg) {
  if (cfg.archive < 2) throw std::invalid_argument("optimize_priorities: archive too small");
  opt_detail::Evolution run{km, cfg,
                            {"optimize_priorities", "ga.optimize", "ga.evaluations",
                             "ga.eval_batch_ms", "ga.generations"}};
  std::vector<GaIndividual> pop = run.seed_population();
  std::vector<GaIndividual> archive;
  for (int gen = 0; gen < cfg.generations; ++gen) {
    // Environmental selection on population + archive; the archive comes
    // out sorted by fitness, so a binary tournament picks the lower index.
    pop.insert(pop.end(), archive.begin(), archive.end());
    archive = spea2_archive(pop, static_cast<std::size_t>(cfg.archive), run.champion());
    run.record_best();
    pop = run.offspring(gen, archive, static_cast<std::size_t>(cfg.population),
                        [](std::size_t a, std::size_t b) { return a < b; });
  }
  pop.insert(pop.end(), archive.begin(), archive.end());
  return run.finish(pop);
}

}  // namespace symcan
