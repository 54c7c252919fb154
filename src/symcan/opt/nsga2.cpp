#include "symcan/opt/nsga2.hpp"

#include <algorithm>
#include <limits>

#include "symcan/opt/evolution.hpp"

namespace symcan {

namespace {

using opt_detail::dominates;

/// Front index (0 = best) and crowding distance of every individual:
/// the order both the binary tournament and the environmental selection
/// use.
struct FrontRanking {
  std::vector<int> front;
  std::vector<double> crowd;
  bool better(std::size_t a, std::size_t b) const {
    if (front[a] != front[b]) return front[a] < front[b];
    return crowd[a] > crowd[b];
  }
};

/// Add the crowding distance of every member of `front` (by index list)
/// to `dist`.
void crowding(const std::vector<GaIndividual>& pool, const std::vector<std::size_t>& front,
              std::vector<double>& dist) {
  const double inf = std::numeric_limits<double>::infinity();
  auto by_objective = [&](auto getter) {
    std::vector<std::size_t> order = front;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return getter(pool[a]) < getter(pool[b]);
    });
    if (order.size() < 2) {
      for (const std::size_t i : order) dist[i] = inf;
      return;
    }
    dist[order.front()] = inf;
    dist[order.back()] = inf;
    const double span = getter(pool[order.back()]) - getter(pool[order.front()]);
    if (span <= 0) return;
    for (std::size_t k = 1; k + 1 < order.size(); ++k)
      dist[order[k]] += (getter(pool[order[k + 1]]) - getter(pool[order[k - 1]])) / span;
  };
  by_objective([](const GaIndividual& x) { return x.misses; });
  by_objective([](const GaIndividual& x) { return x.robustness_cost; });
}

/// Fast non-dominated sort, peeling one front per level; crowding is
/// measured within each front, as Deb et al. define it.
FrontRanking rank_fronts(const std::vector<GaIndividual>& pool) {
  const std::size_t n = pool.size();
  FrontRanking rank{std::vector<int>(n, -1), std::vector<double>(n, 0.0)};
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (dominates(pool[i], pool[j]))
        dominated_by[i].push_back(j);
      else if (dominates(pool[j], pool[i]))
        ++domination_count[i];
    }
    if (domination_count[i] == 0) current.push_back(i);
  }
  for (int level = 0; !current.empty(); ++level) {
    crowding(pool, current, rank.crowd);
    std::vector<std::size_t> next;
    for (const std::size_t i : current) {
      rank.front[i] = level;
      for (const std::size_t j : dominated_by[i])
        if (--domination_count[j] == 0) next.push_back(j);
    }
    current = std::move(next);
  }
  return rank;
}

}  // namespace

namespace opt_detail {

std::vector<GaIndividual> nsga2_survivors(const std::vector<GaIndividual>& pool, std::size_t mu) {
  const FrontRanking rank = rank_fronts(pool);
  return stable_best(pool, mu, [&](std::size_t a, std::size_t b) { return rank.better(a, b); });
}

}  // namespace opt_detail

GaResult optimize_priorities_nsga2(const KMatrix& km, const GaConfig& cfg) {
  opt_detail::Evolution run{km, cfg,
                            {"optimize_priorities_nsga2", "nsga2.optimize", "nsga2.evaluations",
                             "nsga2.eval_batch_ms", "nsga2.generations"}};
  const std::size_t mu = static_cast<std::size_t>(cfg.population);
  std::vector<GaIndividual> parents = run.seed_population();
  for (int gen = 0; gen < cfg.generations; ++gen) {
    const FrontRanking rank = rank_fronts(parents);
    const std::size_t count = 2 * mu > parents.size() ? 2 * mu - parents.size() : 0;
    std::vector<GaIndividual> pool = parents;
    for (auto& c : run.offspring(gen, parents, count,
                                 [&](std::size_t a, std::size_t b) { return rank.better(a, b); }))
      pool.push_back(std::move(c));
    parents = opt_detail::nsga2_survivors(pool, mu);
    run.record_best();
  }
  // Final front, champion guaranteed present.
  parents.push_back(run.champion());
  return run.finish(parents);
}

}  // namespace symcan
