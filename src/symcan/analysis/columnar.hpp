#pragma once

// The busy-period core of the CAN response-time analysis: one resolver,
// one packed layout, one fixed point.
//
// pack_bus() resolves a whole K-Matrix + config into contiguous columns
// in one pass:
//
//   * per-message scalars (cost, bcrt, deadline, blocking, max_retx) and
//     the activation event-model parameters as parallel arrays;
//   * the higher-priority interference sets as one shared CSR block
//     (hp_begin[i] .. hp_begin[i+1]) of (period, jitter, dmin, cost)
//     columns;
//   * the offset groups pre-built into TtGroups (CSR again); a group whose
//     hyperperiod is unbounded is expanded into its offset-blind fallback
//     entries at the tail of the hp rows instead.
//
// Every row comes from the same row resolver that build_message_context()
// (one packed row plus labels) and the cache fingerprints
// (rta_context.hpp) run, so all of them agree on the effective priority
// level, the blocking terms, the largest retransmittable frame, the
// interference predicate and the offset groups by construction.
//
// solve_columnar() runs the Davis/Tindell fixed point over the columns
// with zero heap traffic per solve, examining every instance of the
// level-m busy period (Davis, Burns, Bril & Lukkien, RTS 35, 2007). The
// solve loop is templated on a recorder: the plain overloads inline a
// null recorder away, the SolveTrace overload records the trajectory
// `symcan explain` renders — the same code path, so an explained verdict
// *is* the verdict. The order of hp rows and groups never matters: every
// sum is saturating integer arithmetic over non-negative terms. The
// contract is equality with a deliberately naive per-message reference
// (tests/analysis/reference_rta.hpp) in every field, iteration counts
// included, pinned across assumption presets, seeded matrices and fuzzed
// inputs.
//
// Arena lifetime: a ColumnarBus is a bundle of vectors that only ever
// grow; pack_bus() into an existing instance clear()s and refills them,
// reusing capacity. Hot loops keep one thread_local instance per worker,
// so steady-state re-analysis performs no allocation in the solve.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "symcan/analysis/error_model.hpp"
#include "symcan/analysis/tt_schedule.hpp"
#include "symcan/can/frame.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

struct CanRtaConfig;
struct MessageResult;
class KMatrix;

namespace analysis {

/// EventModel::eta_plus on raw columns. The parameters are stored
/// through the EventModel getters at pack time, so the invariants
/// (p > 0, j >= 0, 0 <= d <= p) hold by construction and this replicates
/// event_model.cpp operation for operation — inline, so the fixed-point
/// loop reads three contiguous lanes instead of chasing an object.
inline std::int64_t columnar_eta_plus(Duration dt, Duration p, Duration j, Duration d) {
  if (dt <= Duration::zero()) return 0;
  const std::int64_t periodic_bound = ceil_div(dt + j, p);
  if (d <= Duration::zero()) return periodic_bound;
  const std::int64_t burst_bound = ceil_div(dt, d) + 1;
  return std::min(periodic_bound, burst_bound);
}

/// EventModel::delta_min on raw columns; same contract as above.
inline Duration columnar_delta_min(std::int64_t n, Duration p, Duration j, Duration d) {
  if (n <= 1) return Duration::zero();
  const Duration periodic = (n - 1) * p - j;
  const Duration burst = (n - 1) * d;
  return max(max(periodic, burst), Duration::zero());
}

/// One whole bus resolved under one config, ready to solve. Index-
/// parallel to KMatrix::messages().
struct ColumnarBus {
  BitTiming timing{500'000};
  Duration horizon = Duration::s(10);
  std::shared_ptr<const ErrorModel> errors;

  // Per-message scalar columns.
  std::vector<Duration> cost;      ///< C_m under the configured stuffing.
  std::vector<Duration> bcrt;      ///< Unstuffed frame time.
  std::vector<Duration> deadline;  ///< Resolved against any override.
  std::vector<Duration> blocking;  ///< Bus + committed intra-node blocking.
  std::vector<Duration> max_retx;  ///< Largest retransmittable frame.
  // Activation event model, already normalized (dmin <= period).
  std::vector<Duration> act_period;
  std::vector<Duration> act_jitter;
  std::vector<Duration> act_dmin;

  /// Higher-priority interference CSR: message i's entries occupy
  /// [hp_begin[i], hp_begin[i+1]) of the four column arrays — the
  /// event-model interferers first, then the offset-blind fallbacks of
  /// any group whose hyperperiod was unbounded.
  std::vector<std::size_t> hp_begin;
  std::vector<Duration> hp_period;
  std::vector<Duration> hp_jitter;
  std::vector<Duration> hp_dmin;
  std::vector<Duration> hp_cost;

  /// Pre-built offset groups CSR: message i's groups occupy
  /// [tt_begin[i], tt_begin[i+1]) of tt_groups. Building happens once per
  /// pack instead of once per solve — TtGroup::interference() is const
  /// and safe to share.
  std::vector<std::size_t> tt_begin;
  std::vector<TtGroup> tt_groups;

  std::size_t size() const { return cost.size(); }

  /// Drop all rows, keep capacity (the arena reuse path).
  void clear();
};

/// Resolve every message of `km` under `cfg` into `out`, reusing its
/// capacity. The hp rows are emitted in one canonical order (period,
/// jitter, min distance, cost), established by one sort of the bus.
void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out);

/// Convenience: pack into a fresh instance.
ColumnarBus pack_bus(const KMatrix& km, const CanRtaConfig& cfg);

/// Run the busy-period fixed point on packed message `i` using
/// `bus.errors`. Allocation-free; the result's name/id are left empty for
/// the caller to patch (they never influence the solver).
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t i);

/// Same solve with the error model replaced per call — the grid-sweep
/// path and the probabilistic rungs, where only the fault assumption
/// varies and the packed columns stay valid (the error model enters the
/// solver solely through its overhead term).
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t i, const ErrorModel& errors);

/// Everything the solver visited on the way to one verdict. The iterate
/// sequences are the successive window values of the monotone fixed
/// points — the convergence trajectory `symcan explain` renders.
struct SolveTrace {
  std::vector<Duration> busy_iterates;  ///< Busy-period fixed-point iterates.
  std::int64_t critical_instance = 0;   ///< 0-based q attaining the WCRT.
  Duration critical_window = Duration::zero();  ///< Fixed point w(q*).
  std::vector<Duration> window_iterates;        ///< Iterates of w(q*).
};

/// The per-call-error-model solve, additionally recording its trajectory
/// into `trace`. Bit-identical to the plain overloads.
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t i, const ErrorModel& errors,
                             SolveTrace& trace);

/// Pack `km` into this thread's arena and solve every row, identity
/// patched: the whole-bus analysis without a cache, shared by
/// CanRta::analyze() and IncrementalRta with the cache off.
std::vector<MessageResult> solve_bus(const KMatrix& km, const CanRtaConfig& cfg);

}  // namespace analysis
}  // namespace symcan
