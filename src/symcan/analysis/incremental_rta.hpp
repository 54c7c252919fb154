#pragma once

// Incremental CAN response-time analysis: a memoizing layer over the
// busy-period core (columnar.hpp, rta_context.hpp) for the hot loops that
// re-analyze *edited* matrices thousands of times — GA/NSGA-II fitness
// evaluation, jitter/error sweeps, sensitivity probes and extensibility
// searches.
//
// A CAN message's verdict depends only on its effective interference
// context: the higher-priority message set (event models + frame times,
// offset groups per sender), the blocking maxima contributed by
// lower-priority and same-node traffic, the error model, and the
// analysis configuration. IncrementalRta resolves that context per
// message, fingerprints it (128 bits), and looks the fingerprint up in a
// bounded LRU map of solved MessageResults. Two GA neighbours that
// differ in one ID swap therefore only re-solve the messages inside the
// swapped priority span; a jitter sweep re-solves only the messages the
// swept jitter actually reaches.
//
// Soundness: the solver reads nothing but the context, and the
// fingerprint covers every context field, so a hit is bit-identical to a
// fresh solve (iteration counts included) — locked down by
// tests/analysis/incremental_rta_test.cpp and the fuzzed differential
// harness in tests/integration/rta_cache_differential_test.cpp.
//
// Thread safety: one IncrementalRta may be shared by every worker of a
// ParallelExecutor fan-out. Lookups and inserts take a per-shard mutex;
// solving happens outside the lock. Because cached and fresh results are
// bit-identical, sharing the cache cannot perturb parallel determinism.
//
// Sharding: the key space is split across `shards` independent LRUs,
// each with its own lock, selected by the context fingerprint's own
// hash. A GA fan-out or the `symcan serve` batcher therefore does not
// serialize every worker on one mutex; with shards == 1 (the default)
// the behaviour is exactly the historical single-LRU cache. Sharding
// changes only lock granularity and eviction locality — never verdicts.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/analysis/rta_context.hpp"

namespace symcan::analysis {

struct ColumnarBus;

/// Cache policy. `enabled = false` degrades to plain context + solve
/// (still avoiding the per-call KMatrix/config copies of CanRta), which
/// is what the --rta-cache off ablation measures.
struct RtaCacheConfig {
  bool enabled = true;
  /// Maximum number of cached per-message results, summed over all
  /// shards. The case-study matrix has ~56 messages, so the default
  /// holds ~1000 distinct interference contexts — plenty for a GA
  /// population while bounding memory. The CLI exposes this as
  /// --rta-cache-capacity.
  std::size_t capacity = 65536;
  /// Number of independent LRU shards (each with its own lock). 1 is
  /// the historical shared-LRU cache; `symcan serve` defaults higher so
  /// concurrent request batches do not contend on one mutex.
  std::size_t shards = 1;
  /// Run KMatrix::validate() on every analyze() input. Hot loops that
  /// re-analyze thousands of ID permutations of one already-validated
  /// matrix (GA/NSGA-II fitness) turn this off after validating once up
  /// front; validation is O(n^2) in messages and would otherwise be paid
  /// per evaluation. Appended last so positional initializers keep
  /// meaning {enabled, capacity, shards}.
  bool validate_input = true;
};

/// Lifetime counters (monotonic; survive clear()).
struct RtaCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;

  std::int64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() > 0 ? static_cast<double>(hits) / static_cast<double>(lookups()) : 0.0;
  }
};

class IncrementalRta {
 public:
  explicit IncrementalRta(RtaCacheConfig cfg = {});

  /// Analyze every message of `km` under `cfg`, reusing cached verdicts
  /// for unchanged interference contexts. Bit-identical to
  /// CanRta{km, cfg}.analyze() in every field.
  BusResult analyze(const KMatrix& km, const CanRtaConfig& cfg);

  /// Analyze one message (index into km.messages()); the single-message
  /// entry point the sensitivity binary searches iterate on.
  MessageResult analyze_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index);

  /// Probabilistic analysis with a warm rung-ladder cache: the expensive
  /// half of a probabilistic verdict (the deterministic solve plus one
  /// conditional solve per fault count — see analysis/prob_rta.hpp) is
  /// content-addressed by the message's context fingerprint mixed with
  /// the ladder shape, so a probability sweep over one matrix solves
  /// each ladder once and only redoes the cheap fixed-point mixture per
  /// sweep point. Bit-identical to the uncached analysis::analyze_prob.
  ProbBusResult analyze_prob(const KMatrix& km, const ProbRtaConfig& cfg);
  ProbMessageResult analyze_message_prob(const KMatrix& km, const ProbRtaConfig& cfg,
                                         std::size_t index);

  const RtaCacheConfig& config() const { return cfg_; }
  /// Aggregated over all shards.
  RtaCacheStats stats() const;
  /// Rung-ladder cache counters (the prob plane keeps its own stats).
  RtaCacheStats prob_stats() const;
  /// Total cached entries, summed over all shards.
  std::size_t size() const;
  /// Effective shard count (>= 1) after clamping to capacity.
  std::size_t shard_count() const { return shards_.size(); }

  /// Drop all cached entries in every shard (stats are kept).
  void clear();

 private:
  /// One independent LRU with its own lock. Entries are routed by the
  /// fingerprint's hash, so a key lives in exactly one shard.
  struct Shard {
    using Entry = std::pair<ContextKey, MessageResult>;
    mutable std::mutex m;
    std::list<Entry> lru;  ///< Front = most recently used; guarded by m.
    std::unordered_map<ContextKey, std::list<Entry>::iterator, ContextKeyHash> map;
    RtaCacheStats stats;  ///< Guarded by m.
  };

  /// The prob plane's shard: same sharding scheme, RungLadder payload.
  /// Ladders and verdicts never share a key space (the ladder key mixes
  /// in the ladder shape), so the planes stay independent.
  struct ProbShard {
    using Entry = std::pair<ContextKey, RungLadder>;
    mutable std::mutex m;
    std::list<Entry> lru;  ///< Front = most recently used; guarded by m.
    std::unordered_map<ContextKey, std::list<Entry>::iterator, ContextKeyHash> map;
    RtaCacheStats stats;  ///< Guarded by m.
  };

  Shard& shard_for(const ContextKey& key);
  ProbShard& prob_shard_for(const ContextKey& key);
  /// Cached rung-ladder resolution for one message (mirrors
  /// analyze_keyed: lookup under the shard lock, solve outside it).
  RungLadder ladder_keyed(const ContextKey& key, const KMatrix& km, const ProbRtaConfig& cfg,
                          std::size_t index, RtaCacheStats& delta);
  void flush_prob_observations(const RtaCacheStats& delta);
  MessageResult analyze_one(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index,
                            RtaCacheStats& delta);
  /// Cache lookup + miss resolution for one message. When `scratch` is
  /// non-null, misses beyond a small threshold solve on a whole-bus pack
  /// made into `scratch` once (`*packed` tracks it); the first few misses
  /// — and every miss when `scratch` is null — pack one row each. Both
  /// run the same resolver and kernel, so the choice is purely a speed
  /// constant for whole-bus runs.
  MessageResult analyze_keyed(const ContextKey& key, const KMatrix& km, const CanRtaConfig& cfg,
                              std::size_t index, RtaCacheStats& delta,
                              ColumnarBus* scratch = nullptr, bool* packed = nullptr);
  void flush_cache_observations(const RtaCacheStats& delta);

  RtaCacheConfig cfg_;
  std::size_t shard_capacity_ = 0;  ///< Per-shard entry budget.
  /// unique_ptr keeps Shard (mutex member) immovable while the vector
  /// stays constructible; sized once in the constructor, never resized.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ProbShard>> prob_shards_;
};

}  // namespace symcan::analysis

namespace symcan {
using analysis::IncrementalRta;
using analysis::RtaCacheConfig;
using analysis::RtaCacheStats;
}  // namespace symcan
