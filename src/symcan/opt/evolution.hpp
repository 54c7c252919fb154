#pragma once

// The generational loop shared by the two multi-objective CAN-ID
// optimizers. Evolution owns everything SPEA2 (ga.cpp) and NSGA-II
// (nsga2.cpp) have in common: config validation, the fitness fan-out
// over one ParallelExecutor and one shared IncrementalRta, the
// `{ga,nsga2}.*` span, counters, histogram and per-generation series,
// seeding, per-slot breeding, champion tracking and the deduplicated
// final front. Each algorithm supplies only its selection and its
// tournament comparator, in a generation loop of a few lines.
//
// Every individual draws from its own RNG stream, stream_seed(seed,
// generation, slot), and evaluations are slot-indexed, so the evolved
// populations are bit-identical at any parallelism, tiling and cache
// setting.

#include <cstddef>
#include <functional>
#include <vector>

#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::opt_detail {

/// Pareto dominance on (misses, robustness_cost), both minimized.
bool dominates(const GaIndividual& a, const GaIndividual& b);

/// Equal (misses, robustness_cost) pairs.
bool same_objectives(const GaIndividual& a, const GaIndividual& b);

/// Truncation selection: the first `size` members of `pool` after a
/// stable sort of its indices by `less`.
std::vector<GaIndividual> stable_best(const std::vector<GaIndividual>& pool, std::size_t size,
                                      const std::function<bool(std::size_t, std::size_t)>& less);

/// The names one optimizer reports under: its entry point (in config
/// errors) and its span, counter, histogram and series. String literals.
struct LoopNames {
  const char* entry;
  const char* span;
  const char* evaluations;
  const char* eval_batch_ms;
  const char* generations;
};

class Evolution {
 public:
  /// Validates `cfg` (throws std::invalid_argument) and `km`, and opens
  /// the optimizer's span for the lifetime of the run.
  Evolution(const KMatrix& km, const GaConfig& cfg, const LoopNames& names);

  /// Generation 0: the configured seeds, then random orders (one stream
  /// per slot) up to the population size, evaluated.
  std::vector<GaIndividual> seed_population();

  /// Breed and evaluate generation `gen`'s `count` children. Each child
  /// slot draws from its own stream; its parents are binary-tournament
  /// winners of `parents`, where `better(a, b)` says whether index `a`
  /// beats index `b` (the tie goes to `b`). Appends the generation's
  /// series point.
  std::vector<GaIndividual> offspring(int gen, const std::vector<GaIndividual>& parents,
                                      std::size_t count,
                                      const std::function<bool(std::size_t, std::size_t)>& better);

  /// The lexicographically best (misses, cost) individual evaluated so far.
  const GaIndividual& champion() const { return champion_; }

  /// Append the champion's misses to best_misses_history.
  void record_best() { result_.best_misses_history.push_back(champion_.misses); }

  /// The result: `pool`'s nondominated set, one per objective pair,
  /// lexicographically sorted; `best` is its front.
  GaResult finish(const std::vector<GaIndividual>& pool);

 private:
  std::vector<GaIndividual> evaluate(const std::vector<PriorityOrder>& orders);

  const KMatrix& km_;
  const GaConfig& cfg_;
  LoopNames names_;
  obs::SpanGuard span_;
  ParallelExecutor exec_;
  IncrementalRta rta_;
  GaResult result_;
  GaIndividual champion_;
  double last_eval_ms_ = 0;
};

/// NSGA-II's environmental selection (nsga2.cpp), declared here for its
/// selection test: the `mu` best of `pool` by front, then by crowding
/// distance within the front.
std::vector<GaIndividual> nsga2_survivors(const std::vector<GaIndividual>& pool, std::size_t mu);

}  // namespace symcan::opt_detail
