#include "symcan/analysis/incremental_rta.hpp"

#include <stdexcept>

#include "symcan/analysis/columnar.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::analysis {

namespace {

/// Misses a run must accumulate before the whole bus gets packed for the
/// miss path. Roughly pack_bus cost divided by one one-row build + solve
/// on the case study — below it the one-row path is cheaper, above it
/// the pack amortizes across the remaining misses.
constexpr std::int64_t kPackMissThreshold = 4;

/// SplitMix64-style chain (same shape as the fingerprint helpers).
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h += v + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Ladder cache key: the context fingerprint with the ladder shape
/// (max_rungs) mixed into both lanes under a plane tag, so ladder keys
/// can never alias verdict keys or each other across shapes.
ContextKey ladder_key(const ContextKey& ctx, std::int64_t max_rungs) {
  return {mix64(ctx.a ^ 0x1adde7, static_cast<std::uint64_t>(max_rungs)),
          mix64(ctx.b, static_cast<std::uint64_t>(max_rungs))};
}

}  // namespace

IncrementalRta::IncrementalRta(RtaCacheConfig cfg) : cfg_{cfg} {
  if (cfg_.capacity == 0) throw std::invalid_argument("IncrementalRta: capacity must be >= 1");
  if (cfg_.shards == 0) throw std::invalid_argument("IncrementalRta: shards must be >= 1");
  // More shards than entries would create empty shards with capacity 0;
  // clamp so every shard can hold at least one entry.
  const std::size_t shards = cfg_.shards > cfg_.capacity ? cfg_.capacity : cfg_.shards;
  shard_capacity_ = cfg_.capacity / shards;
  shards_.reserve(shards);
  prob_shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    prob_shards_.push_back(std::make_unique<ProbShard>());
  }
}

IncrementalRta::Shard& IncrementalRta::shard_for(const ContextKey& key) {
  // The fingerprint is already uniformly mixed, so its hash modulo the
  // shard count spreads keys evenly; a key deterministically lives in
  // exactly one shard.
  return *shards_[ContextKeyHash{}(key) % shards_.size()];
}

MessageResult IncrementalRta::analyze_one(const KMatrix& km, const CanRtaConfig& cfg,
                                          std::size_t index, RtaCacheStats& delta) {
  // The fingerprint is computed straight from the matrix — a hit never
  // pays for context construction (the allocating part of an analysis).
  return analyze_keyed(message_fingerprint(km, cfg, index), km, cfg, index, delta);
}

MessageResult IncrementalRta::analyze_keyed(const ContextKey& key, const KMatrix& km,
                                            const CanRtaConfig& cfg, std::size_t index,
                                            RtaCacheStats& delta, ColumnarBus* scratch,
                                            bool* packed) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock{shard.m};
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++delta.hits;
      MessageResult res = it->second->second;
      // Identity is not part of the key: a structurally equal message in
      // another matrix (e.g. a GA neighbour after an ID swap) reuses the
      // verdict under its own name and ID.
      res.name = km.messages()[index].name;
      res.id = km.messages()[index].id;
      return res;
    }
  }

  // Miss: solve outside the lock. Two workers may race on the same key
  // and both solve; the results are bit-identical, so the duplicate
  // insert below is harmless (the second becomes a refresh). Whole-bus
  // callers hand in a columnar scratch: packing the whole bus costs a
  // handful of one-row build + solve calls, so the first few misses of a
  // run pack one row each and the whole-bus pack only happens once
  // enough misses accumulate to amortize it — near-all-hit analyses (the
  // GA steady state) never pay for a pack they would barely use. Both
  // sides run the same resolver and kernel, so the threshold is purely a
  // speed constant.
  MessageResult res;
  if (scratch != nullptr && (*packed || delta.misses >= kPackMissThreshold)) {
    if (!*packed) {
      pack_bus(km, cfg, *scratch);
      *packed = true;
    }
    res = solve_columnar(*scratch, index);
    res.name = km.messages()[index].name;
    res.id = km.messages()[index].id;
  } else {
    res = solve_message(build_message_context(km, cfg, index));
  }
  ++delta.misses;
  {
    std::lock_guard<std::mutex> lock{shard.m};
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.emplace_front(key, res);
      shard.map.emplace(key, shard.lru.begin());
      if (shard.lru.size() > shard_capacity_) {
        shard.map.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++delta.evictions;
      }
    }
  }
  return res;
}

IncrementalRta::ProbShard& IncrementalRta::prob_shard_for(const ContextKey& key) {
  return *prob_shards_[ContextKeyHash{}(key) % prob_shards_.size()];
}

RungLadder IncrementalRta::ladder_keyed(const ContextKey& key, const KMatrix& km,
                                        const ProbRtaConfig& cfg, std::size_t index,
                                        RtaCacheStats& delta) {
  ProbShard& shard = prob_shard_for(key);
  {
    std::lock_guard<std::mutex> lock{shard.m};
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++delta.hits;
      RungLadder ladder = it->second->second;
      ladder.det.name = km.messages()[index].name;
      ladder.det.id = km.messages()[index].id;
      return ladder;
    }
  }
  // Miss: solve the ladder outside the lock (racing solvers produce
  // bit-identical ladders, so a duplicate insert is a refresh).
  RungLadder ladder = solve_rung_ladder(build_message_context(km, cfg.rta, index), cfg.max_rungs);
  ++delta.misses;
  {
    std::lock_guard<std::mutex> lock{shard.m};
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.emplace_front(key, ladder);
      shard.map.emplace(key, shard.lru.begin());
      if (shard.lru.size() > shard_capacity_) {
        shard.map.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++delta.evictions;
      }
    }
  }
  return ladder;
}

void IncrementalRta::flush_prob_observations(const RtaCacheStats& delta) {
  {
    std::lock_guard<std::mutex> lock{prob_shards_.front()->m};
    RtaCacheStats& s = prob_shards_.front()->stats;
    s.hits += delta.hits;
    s.misses += delta.misses;
    s.evictions += delta.evictions;
  }
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("rta.prob.cache.hits").add(delta.hits);
  m.counter("rta.prob.cache.misses").add(delta.misses);
  m.counter("rta.prob.cache.evictions").add(delta.evictions);
}

ProbMessageResult IncrementalRta::analyze_message_prob(const KMatrix& km,
                                                       const ProbRtaConfig& cfg,
                                                       std::size_t index) {
  validate_prob_config(cfg);
  if (!cfg.rta.errors)
    throw std::invalid_argument("IncrementalRta: error model must not be null");
  if (!cfg_.enabled)
    return mix_ladder(solve_rung_ladder(build_message_context(km, cfg.rta, index), cfg.max_rungs),
                      cfg);
  RtaCacheStats delta;
  const ContextKey key = ladder_key(message_fingerprint(km, cfg.rta, index), cfg.max_rungs);
  ProbMessageResult res = mix_ladder(ladder_keyed(key, km, cfg, index, delta), cfg);
  flush_prob_observations(delta);
  return res;
}

ProbBusResult IncrementalRta::analyze_prob(const KMatrix& km, const ProbRtaConfig& cfg) {
  validate_prob_config(cfg);
  if (!cfg.rta.errors)
    throw std::invalid_argument("IncrementalRta: error model must not be null");
  if (cfg_.validate_input) km.validate();
  SYMCAN_OBS_SPAN("rta.prob.analyze");
  ProbBusResult out;
  out.utilization = km.utilization(cfg.rta.worst_case_stuffing);
  if (!cfg_.enabled) {
    ProbRtaConfig inner = cfg;  // analyze_prob re-validates; fan-out below
    ParallelExecutor exec{cfg.parallelism};
    out.messages = exec.parallel_map_indexed_tiled(
        km.size(), static_cast<std::size_t>(cfg.tile), [&](std::size_t i) {
          return mix_ladder(
              solve_rung_ladder(build_message_context(km, inner.rta, i), inner.max_rungs), inner);
        });
    return out;
  }
  // Whole-bus lookup path: one pre-hashed pass yields every context key.
  const std::vector<ContextKey> keys = bus_fingerprints(km, cfg.rta);
  std::vector<RtaCacheStats> deltas(km.size());
  ParallelExecutor exec{cfg.parallelism};
  out.messages = exec.parallel_map_indexed_tiled(
      km.size(), static_cast<std::size_t>(cfg.tile), [&](std::size_t i) {
        return mix_ladder(
            ladder_keyed(ladder_key(keys[i], cfg.max_rungs), km, cfg, i, deltas[i]), cfg);
      });
  RtaCacheStats delta;
  for (const auto& d : deltas) {
    delta.hits += d.hits;
    delta.misses += d.misses;
    delta.evictions += d.evictions;
  }
  flush_prob_observations(delta);
  if (obs::enabled()) {
    std::int64_t convolutions = 0;
    for (const auto& m : out.messages) convolutions += m.convolutions;
    obs::count("prob.messages", static_cast<std::int64_t>(out.messages.size()));
    obs::count("prob.convolutions", convolutions);
  }
  return out;
}

void IncrementalRta::flush_cache_observations(const RtaCacheStats& delta) {
  {
    // Lifetime counters live on shard 0; per-shard deltas are already
    // merged into `delta` by the callers.
    std::lock_guard<std::mutex> lock{shards_.front()->m};
    RtaCacheStats& s = shards_.front()->stats;
    s.hits += delta.hits;
    s.misses += delta.misses;
    s.evictions += delta.evictions;
  }
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("rta.cache.hits").add(delta.hits);
  m.counter("rta.cache.misses").add(delta.misses);
  m.counter("rta.cache.evictions").add(delta.evictions);
  m.gauge("rta.cache.size").set(static_cast<double>(size()));
}

BusResult IncrementalRta::analyze(const KMatrix& km, const CanRtaConfig& cfg) {
  if (!cfg.errors) throw std::invalid_argument("IncrementalRta: error model must not be null");
  if (cfg_.validate_input) km.validate();
  SYMCAN_OBS_SPAN("rta.can.analyze");
  BusResult out;
  out.utilization = km.utilization(cfg.worst_case_stuffing);
  out.messages.reserve(km.size());
  RtaCacheStats delta;
  // Columnar scratch for the miss path, thread-local so every analyze()
  // on a worker reuses the same arena (capacity only grows; `packed`
  // scopes validity to this run).
  static thread_local ColumnarBus scratch;
  bool packed = false;
  if (cfg_.enabled) {
    // Whole-bus lookup path: one pre-hashed pass over the matrix yields
    // every message's key at a fraction of n independent fingerprints.
    const std::vector<ContextKey> keys = bus_fingerprints(km, cfg);
    for (std::size_t i = 0; i < km.size(); ++i)
      out.messages.push_back(analyze_keyed(keys[i], km, cfg, i, delta, &scratch, &packed));
  } else {
    out.messages = solve_bus(km, cfg);
  }
  flush_rta_observations(out);
  flush_cache_observations(delta);
  return out;
}

MessageResult IncrementalRta::analyze_message(const KMatrix& km, const CanRtaConfig& cfg,
                                              std::size_t index) {
  if (!cfg.errors) throw std::invalid_argument("IncrementalRta: error model must not be null");
  RtaCacheStats delta;
  MessageResult res = cfg_.enabled ? analyze_one(km, cfg, index, delta)
                                   : solve_message(build_message_context(km, cfg, index));
  flush_cache_observations(delta);
  return res;
}

RtaCacheStats IncrementalRta::stats() const {
  std::lock_guard<std::mutex> lock{shards_.front()->m};
  return shards_.front()->stats;
}

RtaCacheStats IncrementalRta::prob_stats() const {
  std::lock_guard<std::mutex> lock{prob_shards_.front()->m};
  return prob_shards_.front()->stats;
}

std::size_t IncrementalRta::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock{shard->m};
    n += shard->map.size();
  }
  return n;
}

void IncrementalRta::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock{shard->m};
    shard->lru.clear();
    shard->map.clear();
  }
  for (auto& shard : prob_shards_) {
    std::lock_guard<std::mutex> lock{shard->m};
    shard->lru.clear();
    shard->map.clear();
  }
}

}  // namespace symcan::analysis
