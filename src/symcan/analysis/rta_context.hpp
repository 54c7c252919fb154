#pragma once

// Per-message entry points of the busy-period core (columnar.hpp), and
// the content-addressed keys IncrementalRta caches verdicts under:
//
//   build_message_context(km, cfg, i)  — resolve message i into a
//       self-contained MessageContext: one packed row of the columnar
//       layout, plus (on request) the human-readable labels of its terms.
//
//   solve_message(ctx)                 — the columnar fixed point on that
//       row. Deterministic: equal rows give bit-identical MessageResults.
//
//   message_fingerprint / bus_fingerprints — a 128-bit key over every
//       value the solver reads for message i.
//
// All three, and pack_bus(), run the same row resolver (columnar.cpp),
// so they agree on the effective priority level, the blocking terms,
// the largest retransmittable frame, the interference predicate and the
// offset groups by construction. The key hashes the resolved values, not
// the raw matrix: lower-priority messages enter only through the
// blocking/retransmission maxima, and the interference sets are hashed
// as multisets (CAN interference is a set property — arbitration order
// among higher-priority frames does not change the busy-window sum), so
// a fingerprint hit *is* a proof that a fresh solve would produce the
// same bits. Two GA neighbours that differ in one ID swap therefore
// share keys for every message outside the swapped priority span, and a
// jitter sweep reuses every message whose interference set the sweep
// does not touch.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "symcan/analysis/columnar.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

struct CanRtaConfig;
struct MessageResult;
class KMatrix;

namespace analysis {

/// Everything the busy-period solver may read about one message.
struct MessageContext {
  /// Output identity only — patched into the result, never hashed, so a
  /// cached result can be re-labelled for a structurally equal message.
  std::string name;
  std::uint32_t id = 0;
  /// The message resolved against its bus: a one-row ColumnarBus.
  ColumnarBus row;
};

/// 128-bit context key. Two lanes of independent mixing make accidental
/// collisions (which would silently corrupt cached results) vanishingly
/// unlikely at any realistic cache size.
struct ContextKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const ContextKey&, const ContextKey&) = default;
};

struct ContextKeyHash {
  std::size_t operator()(const ContextKey& k) const noexcept {
    return static_cast<std::size_t>(k.a ^ (k.b * 0x9e3779b97f4a7c15ULL));
  }
};

/// Human-readable identities of a context's solver inputs, filled by
/// build_message_context() on request. Pure output identity — never
/// hashed, never read by the solver — consumed by the provenance layer
/// (analysis/provenance.hpp) to name the terms of a breakdown.
struct ContextLabels {
  /// Parallel to the row's hp entries: the interfering message of each,
  /// offset-blind group fallbacks included.
  std::vector<std::string> hp;
  /// Parallel to the row's tt_groups: the sending node of each offset
  /// group and its member names, sorted by (member key, name).
  std::vector<std::string> tt_sender;
  std::vector<std::vector<std::string>> tt_members;
  /// Largest lower-priority bus frame, the first in matrix order among
  /// equal maxima; "" if none.
  std::string blocking_frame;
  Duration bus_blocking = Duration::zero();
  Duration intra_node_blocking = Duration::zero();
};

/// Resolve message `index` of `km` under `cfg` into a solver context.
/// `labels`, when non-null, receives the human-readable identity of every
/// resolved input (see ContextLabels).
MessageContext build_message_context(const KMatrix& km, const CanRtaConfig& cfg,
                                     std::size_t index, ContextLabels* labels = nullptr);

/// Run the busy-period fixed point on one context. Pure: equal contexts
/// give bit-identical results (iteration counts included).
MessageResult solve_message(const MessageContext& ctx);

/// Fingerprint of message `index`: every resolved solver input plus the
/// raw config switches (redundant with the resolved values, kept as cheap
/// insurance against future fields bypassing the resolution). The
/// interference sets are hashed as multisets (commutative combine), so
/// the key is independent of element order.
ContextKey message_fingerprint(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index);

/// All message fingerprints of `km` at once, equal element-wise to
/// message_fingerprint(km, cfg, i). Hashes every message's interference
/// contribution once and combines per message by commutative addition,
/// so the whole-bus pass does O(n^2) additions instead of O(n^2) hash
/// mixes — the lookup path of IncrementalRta::analyze().
std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg);

}  // namespace analysis
}  // namespace symcan
