#include "symcan/opt/evolution.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "symcan/util/rng.hpp"

namespace symcan::opt_detail {

namespace {

bool lex_better(const GaIndividual& a, const GaIndividual& b) {
  if (a.misses != b.misses) return a.misses < b.misses;
  return a.robustness_cost < b.robustness_cost;
}

const GaConfig& validated(const GaConfig& cfg, const char* entry) {
  const std::string fn = entry;
  if (cfg.population < 4) throw std::invalid_argument(fn + ": population too small");
  if (cfg.eval_fractions.empty())
    throw std::invalid_argument(fn + ": need at least one evaluation fraction");
  if (cfg.tile < 0) throw std::invalid_argument(fn + ": tile must be >= 0");
  return cfg;
}

RtaCacheConfig without_validation(RtaCacheConfig memo) {
  memo.validate_input = false;
  return memo;
}

/// Order crossover (OX): keep a slice of parent A, fill the rest in
/// parent B's order. Preserves permutation validity.
PriorityOrder order_crossover(const PriorityOrder& a, const PriorityOrder& b, Rng& rng) {
  const std::size_t n = a.size();
  if (n < 2) return a;
  std::size_t lo = rng.index(n);
  std::size_t hi = rng.index(n);
  if (lo > hi) std::swap(lo, hi);
  PriorityOrder child(n, n);  // n = unset sentinel
  std::vector<bool> used(n, false);
  for (std::size_t i = lo; i <= hi; ++i) {
    child[i] = a[i];
    used[a[i]] = true;
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (used[b[i]]) continue;
    while (pos >= lo && pos <= hi) ++pos;
    child[pos++] = b[i];
  }
  return child;
}

void swap_mutation(PriorityOrder& o, Rng& rng) {
  if (o.size() < 2) return;
  const std::size_t i = rng.index(o.size());
  const std::size_t j = rng.index(o.size());
  std::swap(o[i], o[j]);
}

}  // namespace

bool dominates(const GaIndividual& a, const GaIndividual& b) {
  const bool le = a.misses <= b.misses && a.robustness_cost <= b.robustness_cost;
  const bool lt = a.misses < b.misses || a.robustness_cost < b.robustness_cost;
  return le && lt;
}

bool same_objectives(const GaIndividual& a, const GaIndividual& b) {
  return a.misses == b.misses && a.robustness_cost == b.robustness_cost;
}

std::vector<GaIndividual> stable_best(const std::vector<GaIndividual>& pool, std::size_t size,
                                      const std::function<bool(std::size_t, std::size_t)>& less) {
  std::vector<std::size_t> idx(pool.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), less);
  std::vector<GaIndividual> best;
  for (std::size_t i = 0; i < size && i < idx.size(); ++i) best.push_back(pool[idx[i]]);
  return best;
}

Evolution::Evolution(const KMatrix& km, const GaConfig& cfg, const LoopNames& names)
    : km_{km},
      cfg_{validated(cfg, names.entry)},
      names_{names},
      span_{names.span},
      exec_{cfg.parallelism},
      rta_{without_validation(cfg.cache)} {
  // Every variant an evaluation builds is an ID permutation of `km`,
  // which preserves validity: validate once here instead of on every
  // analyze().
  km.validate();
  // Any evaluated individual beats the empty champion.
  champion_.misses = std::numeric_limits<double>::infinity();
}

std::vector<GaIndividual> Evolution::evaluate(const std::vector<PriorityOrder>& orders) {
  // The expensive part — a full RTA per eval fraction per individual —
  // fans out over the pool. One memo is shared by all workers across all
  // generations: neighbouring candidates differ in a few swapped ranks,
  // so most per-message contexts recur and only the edited span
  // re-solves. A cache hit is bit-identical to a fresh solve.
  result_.evaluations += static_cast<int>(orders.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<GaIndividual> evaluated = exec_.parallel_map_tiled(
      orders, static_cast<std::size_t>(cfg_.tile),
      [&](const PriorityOrder& o) { return evaluate_order(km_, o, cfg_, rta_); });
  last_eval_ms_ =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  if (obs::enabled()) {
    auto& m = obs::metrics();
    m.counter(names_.evaluations).add(static_cast<std::int64_t>(orders.size()));
    m.histogram(names_.eval_batch_ms).observe(last_eval_ms_);
  }
  for (const GaIndividual& x : evaluated)
    if (lex_better(x, champion_)) champion_ = x;
  return evaluated;
}

std::vector<GaIndividual> Evolution::seed_population() {
  std::vector<PriorityOrder> init = cfg_.seeds;
  while (init.size() < static_cast<std::size_t>(cfg_.population)) {
    Rng slot_rng{stream_seed(cfg_.seed, 0, init.size())};
    PriorityOrder o(km_.size());
    for (std::size_t i = 0; i < o.size(); ++i) o[i] = i;
    slot_rng.shuffle(o);
    init.push_back(std::move(o));
  }
  return evaluate(init);
}

std::vector<GaIndividual> Evolution::offspring(
    int gen, const std::vector<GaIndividual>& parents, std::size_t count,
    const std::function<bool(std::size_t, std::size_t)>& better) {
  // Variation stays serial and cheap; only evaluation fans out.
  std::vector<PriorityOrder> children(count);
  for (std::size_t slot = 0; slot < children.size(); ++slot) {
    Rng slot_rng{stream_seed(cfg_.seed, static_cast<std::uint64_t>(gen) + 1, slot)};
    auto tournament = [&]() -> const GaIndividual& {
      const std::size_t a = slot_rng.index(parents.size());
      const std::size_t b = slot_rng.index(parents.size());
      return parents[better(a, b) ? a : b];
    };
    PriorityOrder child;
    if (slot_rng.chance(cfg_.crossover_rate))
      child = order_crossover(tournament().order, tournament().order, slot_rng);
    else
      child = tournament().order;
    if (slot_rng.chance(cfg_.mutation_rate)) swap_mutation(child, slot_rng);
    children[slot] = std::move(child);
  }
  std::vector<GaIndividual> evaluated = evaluate(children);

  if (obs::enabled()) {
    obs::count(names_.generations);
    obs::metrics().series(names_.generations).append({
        {"generation", static_cast<double>(gen)},
        {"best_misses", champion_.misses},
        {"best_robustness_cost", champion_.robustness_cost},
        {"evaluations", static_cast<double>(result_.evaluations)},
        {"eval_ms", last_eval_ms_},
    });
  }
  return evaluated;
}

GaResult Evolution::finish(const std::vector<GaIndividual>& pool) {
  std::vector<GaIndividual> pareto;
  for (const auto& c : pool)
    if (std::none_of(pool.begin(), pool.end(),
                     [&](const GaIndividual& d) { return dominates(d, c); }))
      pareto.push_back(c);
  // Dedup identical objective pairs to keep the front readable.
  std::sort(pareto.begin(), pareto.end(), lex_better);
  pareto.erase(std::unique(pareto.begin(), pareto.end(), same_objectives), pareto.end());
  result_.pareto = std::move(pareto);
  result_.best = result_.pareto.front();
  return std::move(result_);
}

}  // namespace symcan::opt_detail
