#include "symcan/analysis/columnar.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/rta_context.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/model/event_model.hpp"

namespace symcan::analysis {

namespace {

// ------------------------------------------------------------ row resolver

/// Deadline under cfg's override policy (explicit deadlines are never
/// overridden): CanMessage::deadline() without copying the message.
Duration effective_deadline(const CanMessage& m, const CanRtaConfig& cfg) {
  const DeadlinePolicy policy =
      (!cfg.deadline_override || m.deadline_policy == DeadlinePolicy::kExplicit)
          ? m.deadline_policy
          : *cfg.deadline_override;
  switch (policy) {
    case DeadlinePolicy::kPeriod:
      return m.period;
    case DeadlinePolicy::kMinReArrival:
      return max(m.period - m.jitter, m.min_distance);
    case DeadlinePolicy::kExplicit:
      return m.explicit_deadline;
  }
  return Duration::infinite();
}

/// The one row resolver behind pack_bus(), build_message_context() and
/// both fingerprints. Construction gathers, in one O(n) pass, what every
/// row reads: per message its rank, frame time, normalized activation
/// and sender; per sender whether it is a modelled basicCAN controller,
/// its committed-buffer count and its lowest priority. resolve() then
/// applies the priority relations to one message.
class RowResolver {
 public:
  /// Scan `km` under `cfg`, reusing the capacity of an earlier scan.
  void scan(const KMatrix& km, const CanRtaConfig& cfg) {
    km_ = &km;
    cfg_ = &cfg;
    rank_.clear();
    cost_.clear();
    activation_.clear();
    sender_.clear();
    offset_.clear();
    senders_.clear();
    basic_.clear();
    tx_buffers_.clear();
    lowest_.clear();
    for (const CanMessage& m : km.messages()) {
      rank_.push_back(m.arbitration_rank());
      cost_.push_back(m.wcet(km.timing(), cfg.worst_case_stuffing));
      activation_.push_back(m.activation());
      offset_.push_back(cfg.use_offsets && m.tt_offset.has_value());
      std::size_t s = 0;
      while (s < senders_.size() && *senders_[s] != m.sender) ++s;
      if (s == senders_.size()) {
        senders_.push_back(&m.sender);
        const EcuNode* node = km.find_node(m.sender);
        basic_.push_back(cfg.model_controller_queues && node != nullptr &&
                         node->controller == ControllerType::kBasicCan);
        tx_buffers_.push_back(node != nullptr ? node->tx_buffers : 0);
        lowest_.push_back(0);
      }
      sender_.push_back(s);
      lowest_[s] = std::max(lowest_[s], rank_.back());
    }
  }

  const KMatrix& matrix() const { return *km_; }
  const CanRtaConfig& config() const { return *cfg_; }
  std::size_t sender_count() const { return senders_.size(); }
  const std::string& sender_name(std::size_t s) const { return *senders_[s]; }

  Duration cost(std::size_t k) const { return cost_[k]; }
  const EventModel& activation(std::size_t k) const { return activation_[k]; }
  std::size_t sender(std::size_t k) const { return sender_[k]; }
  /// Offset-scheduled under the config: joins its sender's TtGroup.
  bool offset_scheduled(std::size_t k) const { return offset_[k] != 0; }

  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  struct Row {
    Duration bus_blocking = Duration::zero();    ///< One started lower-priority frame.
    Duration intra_blocking = Duration::zero();  ///< Committed basicCAN FIFO entries.
    Duration max_retx = Duration::zero();        ///< Largest retransmittable frame.
    std::size_t blocking_frame = kNone;  ///< First in scan order among the largest.
  };

  /// Resolve message i, scanning the other messages in `order` (matrix
  /// order when null) and calling `interferer(k)` for each message k
  /// that interferes with i.
  ///
  /// A basicCAN controller sends its committed FIFO in order, so i
  /// competes at its node's lowest priority (the level). Blocking is one
  /// already-started frame below the level plus, on basicCAN, the
  /// largest tx_buffers same-node lower-priority frames already handed
  /// to the controller. A fault can force a retransmission of any frame
  /// at or above the level, or of the blocking frame. Interferers are
  /// other nodes' frames above the level (they beat the committed FIFO
  /// entries i sits behind) and same-node frames above i itself
  /// (same-node frames between i and the committed entries queue behind
  /// i and cannot interfere).
  template <typename F>
  Row resolve(std::size_t i, const std::vector<std::size_t>* order, F&& interferer) {
    // Locals, so the interferer's writes cannot force reloads.
    const std::size_t n = rank_.size();
    const std::size_t* scan_order = order != nullptr ? order->data() : nullptr;
    const std::uint64_t* rank = rank_.data();
    const Duration* cost = cost_.data();
    const std::size_t* sender = sender_.data();
    const std::size_t s = sender[i];
    const bool basic = basic_[s] != 0;
    const std::uint64_t own = rank[i];
    const std::uint64_t level = basic ? lowest_[s] : own;
    Row row;
    row.max_retx = cost[i];
    committed_.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = scan_order != nullptr ? scan_order[j] : j;
      if (k == i) continue;
      if (rank[k] > level) {
        if (cost[k] > row.bus_blocking) {
          row.bus_blocking = cost[k];
          row.blocking_frame = k;
        }
      } else {
        row.max_retx = max(row.max_retx, cost[k]);
        if (sender[k] == s ? rank[k] < own : rank[k] < level) interferer(k);
      }
      if (basic && sender[k] == s && rank[k] > own) committed_.push_back(cost[k]);
    }
    row.max_retx = max(row.max_retx, row.bus_blocking);
    if (!committed_.empty()) {
      std::sort(committed_.begin(), committed_.end(), std::greater<>{});
      const std::size_t held =
          std::min(committed_.size(), static_cast<std::size_t>(std::max(tx_buffers_[s], 0)));
      for (std::size_t f = 0; f < held; ++f) row.intra_blocking += committed_[f];
    }
    return row;
  }

 private:
  const KMatrix* km_ = nullptr;
  const CanRtaConfig* cfg_ = nullptr;
  std::vector<std::uint64_t> rank_;
  std::vector<Duration> cost_;
  std::vector<EventModel> activation_;
  std::vector<std::size_t> sender_;
  std::vector<char> offset_;
  // Per sender.
  std::vector<const std::string*> senders_;
  std::vector<char> basic_;
  std::vector<int> tx_buffers_;
  std::vector<std::uint64_t> lowest_;
  std::vector<Duration> committed_;  ///< Scratch of resolve().
};

/// This thread's resolver, scanned for `km` under `cfg`: the per-call
/// entry points reuse its capacity instead of allocating every column.
RowResolver& thread_resolver(const KMatrix& km, const CanRtaConfig& cfg) {
  static thread_local RowResolver r;
  r.scan(km, cfg);
  return r;
}

// ------------------------------------------------------------------ packing

auto member_order_key(const TtGroup::Member& m) {
  return std::make_tuple(m.period.count_ns(), m.offset.count_ns(), m.jitter.count_ns(),
                         m.cost.count_ns());
}

/// Reused per-row scratch of pack_row().
struct PackScratch {
  std::vector<std::vector<std::size_t>> members;  ///< Offset interferers per sender.
  std::vector<TtGroup::Member> group;
};

void push_hp(ColumnarBus& out, const EventModel& em, Duration cost) {
  out.hp_period.push_back(em.period());
  out.hp_jitter.push_back(em.jitter());
  out.hp_dmin.push_back(em.min_distance());
  out.hp_cost.push_back(cost);
}

/// Append message i's row to `out`, scanning interferers in `order`.
/// `labels`, when non-null, receives the name of every term.
void pack_row(RowResolver& r, std::size_t i, const std::vector<std::size_t>* order,
              ColumnarBus& out, PackScratch& scratch, ContextLabels* labels) {
  const auto& msgs = r.matrix().messages();
  const CanMessage& m = msgs[i];
  out.cost.push_back(r.cost(i));
  out.bcrt.push_back(m.bcet(r.matrix().timing()));
  out.deadline.push_back(effective_deadline(m, r.config()));
  out.act_period.push_back(r.activation(i).period());
  out.act_jitter.push_back(r.activation(i).jitter());
  out.act_dmin.push_back(r.activation(i).min_distance());

  out.hp_begin.push_back(out.hp_period.size());
  scratch.members.resize(r.sender_count());
  for (auto& g : scratch.members) g.clear();
  const RowResolver::Row row = r.resolve(i, order, [&](std::size_t k) {
    if (r.offset_scheduled(k)) {
      scratch.members[r.sender(k)].push_back(k);
      return;
    }
    push_hp(out, r.activation(k), r.cost(k));
    if (labels != nullptr) labels->hp.push_back(msgs[k].name);
  });
  out.blocking.push_back(row.bus_blocking + row.intra_blocking);
  out.max_retx.push_back(row.max_retx);
  if (labels != nullptr) {
    labels->bus_blocking = row.bus_blocking;
    labels->intra_node_blocking = row.intra_blocking;
    if (row.blocking_frame != RowResolver::kNone)
      labels->blocking_frame = msgs[row.blocking_frame].name;
  }

  // One group per sending node; a group whose hyperperiod is unbounded
  // falls back to offset-blind event models at the tail of the hp rows.
  const auto member = [&](std::size_t k) {
    return TtGroup::Member{msgs[k].period, *msgs[k].tt_offset, msgs[k].jitter, r.cost(k)};
  };
  out.tt_begin.push_back(out.tt_groups.size());
  for (std::size_t s = 0; s < scratch.members.size(); ++s) {
    auto& ks = scratch.members[s];
    if (ks.empty()) continue;
    std::sort(ks.begin(), ks.end(), [&](std::size_t a, std::size_t b) {
      const auto ka = member_order_key(member(a));
      const auto kb = member_order_key(member(b));
      return ka != kb ? ka < kb : msgs[a].name < msgs[b].name;
    });
    scratch.group.clear();
    for (const std::size_t k : ks) scratch.group.push_back(member(k));
    if (auto g = TtGroup::build(scratch.group)) {
      out.tt_groups.push_back(std::move(*g));
      if (labels == nullptr) continue;
      labels->tt_sender.push_back(r.sender_name(s));
      auto& names = labels->tt_members.emplace_back();
      for (const std::size_t k : ks) names.push_back(msgs[k].name);
    } else {
      for (const std::size_t k : ks) {
        push_hp(out, EventModel::periodic_jitter(msgs[k].period, msgs[k].jitter), r.cost(k));
        if (labels != nullptr) labels->hp.push_back(msgs[k].name);
      }
    }
  }
}

void begin_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out) {
  out.clear();
  out.timing = km.timing();
  out.horizon = cfg.horizon;
  out.errors = cfg.errors;
}

void close_bus(ColumnarBus& out) {
  out.hp_begin.push_back(out.hp_period.size());
  out.tt_begin.push_back(out.tt_groups.size());
}

// ------------------------------------------------------------------ solving

/// Iterate a monotone fixed point x = f(x) starting from x0, bounded by
/// `horizon`. Returns the fixed point, or infinite() when it diverges.
/// `iterations` accumulates the number of evaluations of f — counted
/// locally so the hot loop stays free of atomics. `rec(x)` observes each
/// iterate (the inputs to f, ending with the fixed point itself).
template <typename F, typename R>
Duration fixed_point(Duration x0, Duration horizon, std::int64_t& iterations, F&& f, R&& rec) {
  Duration x = x0;
  for (;;) {
    rec(x);
    ++iterations;
    const Duration next = f(x);
    if (next == x) return x;
    if (next > horizon) return Duration::infinite();
    // f is non-decreasing in x for all our interference terms, so the
    // iteration is non-decreasing; a decrease would indicate a modelling
    // bug, which we guard in debug builds.
    assert(next > x);
    x = next;
  }
}

/// Solver-trajectory recorders. The null recorder keeps the hot path
/// free of any bookkeeping; the tracing recorder fills a SolveTrace,
/// keeping the window iterates of the instance that attains the WCRT.
struct NullSolveRecorder {
  void busy_iterate(Duration) {}
  void begin_instance() {}
  void window_iterate(Duration) {}
  void instance_result(std::int64_t, Duration, Duration) {}
};

struct TracingSolveRecorder {
  explicit TracingSolveRecorder(SolveTrace& trace) : out(trace) {}

  SolveTrace& out;
  std::vector<Duration> scratch;  ///< Iterates of the instance in flight.
  Duration best_response = -Duration::infinite();

  void busy_iterate(Duration x) { out.busy_iterates.push_back(x); }
  void begin_instance() { scratch.clear(); }
  void window_iterate(Duration x) { scratch.push_back(x); }
  void instance_result(std::int64_t q, Duration w, Duration response) {
    // Strict '>' mirrors wcrt = max(wcrt, response): the first instance
    // attaining the maximum is the critical one.
    if (response > best_response) {
      best_response = response;
      out.critical_instance = q;
      out.critical_window = w;
      out.window_iterates = scratch;
    }
  }
};

/// The one busy-period solve loop behind every entry point. `rec` only
/// observes — with the null recorder every hook inlines to nothing.
template <typename Rec>
MessageResult solve_row(const ColumnarBus& bus, std::size_t i, const ErrorModel& errors,
                        Rec& rec) {
  if (i + 1 >= bus.hp_begin.size()) throw std::out_of_range("solve_columnar: bad index");

  const Duration tau_bit = bus.timing.bit_time();
  const Duration c_m = bus.cost[i];
  const Duration act_p = bus.act_period[i];
  const Duration act_j = bus.act_jitter[i];
  const Duration act_d = bus.act_dmin[i];
  const Duration blocking = bus.blocking[i];
  const Duration max_retx = bus.max_retx[i];

  MessageResult res;
  res.bcrt = bus.bcrt[i];
  res.deadline = bus.deadline[i];
  res.blocking = blocking;

  const std::size_t hp_lo = bus.hp_begin[i];
  const std::size_t hp_hi = bus.hp_begin[i + 1];
  const std::size_t tt_lo = bus.tt_begin[i];
  const std::size_t tt_hi = bus.tt_begin[i + 1];

  const auto hp_interference = [&](Duration window) {
    Duration total = Duration::zero();
    for (std::size_t k = hp_lo; k < hp_hi; ++k)
      total += columnar_eta_plus(window, bus.hp_period[k], bus.hp_jitter[k], bus.hp_dmin[k]) *
               bus.hp_cost[k];
    for (std::size_t g = tt_lo; g < tt_hi; ++g) total += bus.tt_groups[g].interference(window);
    return total;
  };
  const auto error_overhead = [&](Duration window) {
    if (window <= Duration::zero()) return Duration::zero();
    return errors.overhead(window, max_retx, bus.timing);
  };

  // Length of the level-m busy period: processor demand of m itself, all
  // higher-priority traffic, blocking, and fault recovery.
  std::int64_t iterations = 0;
  const Duration busy = fixed_point(
      blocking + c_m, bus.horizon, iterations,
      [&](Duration t) {
        return blocking + columnar_eta_plus(t, act_p, act_j, act_d) * c_m + hp_interference(t) +
               error_overhead(t);
      },
      [&](Duration x) { rec.busy_iterate(x); });
  res.fixedpoint_iterations = iterations;
  if (busy.is_infinite()) {
    res.wcrt = Duration::infinite();
    res.busy_period = Duration::infinite();
    res.diverged = true;
    res.schedulable = false;
    return res;
  }
  res.busy_period = busy;

  // Every instance of the busy period is examined: on non-preemptive CAN,
  // higher-priority frames queued during m's own transmission keep the
  // busy period going, so a later instance can be worse even when an
  // earlier one finished before the next arrival (Davis et al. 2007).
  const std::int64_t q_max = columnar_eta_plus(busy, act_p, act_j, act_d);
  res.instances = q_max;
  Duration wcrt = Duration::zero();
  for (std::int64_t q = 0; q < q_max; ++q) {
    // Queueing delay of instance q (0-based): blocking, q earlier
    // instances of m, higher-priority frames that win arbitration before
    // instance q gets the bus (a frame queued up to one bit time after
    // the arbitration decision still wins), and fault recovery covering
    // the window up to the end of instance q's transmission.
    rec.begin_instance();
    const Duration w = fixed_point(
        blocking + q * c_m, bus.horizon, iterations,
        [&](Duration t) {
          return blocking + q * c_m + hp_interference(t + tau_bit) + error_overhead(t + c_m);
        },
        [&](Duration x) { rec.window_iterate(x); });
    res.fixedpoint_iterations = iterations;
    if (w.is_infinite()) {
      res.wcrt = Duration::infinite();
      res.diverged = true;
      res.schedulable = false;
      return res;
    }
    // Instance q arrives no earlier than delta_min(q+1) after the busy
    // period starts; its response time is measured from its own arrival.
    const Duration response = w + c_m - columnar_delta_min(q + 1, act_p, act_j, act_d);
    rec.instance_result(q, w, response);
    wcrt = max(wcrt, response);
  }
  res.wcrt = wcrt;
  res.schedulable = !res.deadline.is_infinite() ? wcrt <= res.deadline : true;
  return res;
}

// ------------------------------------------------------------- fingerprints

/// Two-lane 128-bit mixer: lane a is FNV-1a, lane b a SplitMix-style
/// add-xor-multiply chain. Both lanes see every word, with different
/// diffusion, so a collision requires defeating both simultaneously.
class KeyMixer {
 public:
  KeyMixer() = default;
  explicit KeyMixer(std::uint64_t seed) { mix(seed); }
  void mix(std::uint64_t v) {
    a_ = (a_ ^ v) * 0x100000001b3ULL;
    b_ += v + 0x9e3779b97f4a7c15ULL;
    b_ = (b_ ^ (b_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    b_ ^= b_ >> 27;
  }
  void mix(Duration d) { mix(static_cast<std::uint64_t>(d.count_ns())); }
  void mix(const EventModel& em) {
    mix(em.period());
    mix(em.jitter());
    mix(em.min_distance());
  }
  ContextKey key() const { return ContextKey{a_, b_}; }

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x58a3f9e1d2c4b605ULL;
};

/// Multiset accumulator: elements are hashed individually through a
/// seeded KeyMixer and combined with wrapping addition per lane, so the
/// accumulated value is independent of element order.
struct MultisetAcc {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t n = 0;

  void add(const ContextKey& k) {
    a += k.a;
    b += k.b;
    ++n;
  }
};

/// Hash of message k's contribution to the rows it interferes with: an
/// offset-group member, or an hp entry (event model + frame time).
ContextKey element_hash(const RowResolver& r, std::size_t k) {
  const CanMessage& m = r.matrix().messages()[k];
  if (r.offset_scheduled(k)) {
    KeyMixer h{0x74742d6d656d6265ULL};  // "tt-membe"
    h.mix(m.period);
    h.mix(*m.tt_offset);
    h.mix(m.jitter);
    h.mix(r.cost(k));
    return h.key();
  }
  KeyMixer h{0x68702d656e747279ULL};  // "hp-entry"
  h.mix(r.activation(k));
  h.mix(r.cost(k));
  return h.key();
}

/// Key of message i: the resolved scalar inputs, the hp multiset and the
/// multiset of per-sender offset-group multisets. `element(k)` yields
/// element_hash(r, k), precomputed or not; `groups` is per-sender
/// scratch.
template <typename Element>
ContextKey row_key(RowResolver& r, std::size_t i, std::uint64_t errors_fp, Element&& element,
                   std::vector<MultisetAcc>& groups) {
  const CanRtaConfig& cfg = r.config();
  const CanMessage& m = r.matrix().messages()[i];
  const BitTiming& timing = r.matrix().timing();
  MultisetAcc hp;
  groups.assign(r.sender_count(), MultisetAcc{});
  const RowResolver::Row row = r.resolve(i, nullptr, [&](std::size_t k) {
    (r.offset_scheduled(k) ? groups[r.sender(k)] : hp).add(element(k));
  });
  MultisetAcc tt;
  for (const MultisetAcc& g : groups) {
    if (g.n == 0) continue;
    KeyMixer h{0x74742d67726f7570ULL};  // "tt-group"
    h.mix(g.a);
    h.mix(g.b);
    h.mix(g.n);
    tt.add(h.key());
  }

  KeyMixer h;
  // Raw config switches. Strictly redundant — every switch is already
  // resolved into the values below — but hashed anyway so a future
  // config field that leaks into the solver without being folded into
  // the resolution shows up as a differential-test failure, not a stale
  // hit.
  h.mix(static_cast<std::uint64_t>(cfg.worst_case_stuffing) |
        (static_cast<std::uint64_t>(cfg.model_controller_queues) << 1) |
        (static_cast<std::uint64_t>(cfg.use_offsets) << 2) |
        (cfg.deadline_override ? 0x10ULL + static_cast<std::uint64_t>(*cfg.deadline_override)
                               : 0x8ULL));
  h.mix(errors_fp);
  h.mix(static_cast<std::uint64_t>(timing.bits_per_second()));
  h.mix(timing.bit_time());
  h.mix(r.cost(i));
  h.mix(m.bcet(timing));
  h.mix(effective_deadline(m, cfg));
  h.mix(r.activation(i));
  h.mix(row.bus_blocking + row.intra_blocking);
  h.mix(row.max_retx);
  h.mix(cfg.horizon);
  h.mix(hp.a);
  h.mix(hp.b);
  h.mix(hp.n);
  h.mix(tt.a);
  h.mix(tt.b);
  h.mix(tt.n);
  return h.key();
}

}  // namespace

void ColumnarBus::clear() {
  cost.clear();
  bcrt.clear();
  deadline.clear();
  blocking.clear();
  max_retx.clear();
  act_period.clear();
  act_jitter.clear();
  act_dmin.clear();
  hp_begin.clear();
  hp_period.clear();
  hp_jitter.clear();
  hp_dmin.clear();
  hp_cost.clear();
  tt_begin.clear();
  tt_groups.clear();
}

void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out) {
  const std::size_t n = km.size();
  begin_bus(km, cfg, out);
  out.cost.reserve(n);
  out.bcrt.reserve(n);
  out.deadline.reserve(n);
  out.blocking.reserve(n);
  out.max_retx.reserve(n);
  out.act_period.reserve(n);
  out.act_jitter.reserve(n);
  out.act_dmin.reserve(n);
  out.hp_begin.reserve(n + 1);
  out.tt_begin.reserve(n + 1);

  RowResolver& r = thread_resolver(km, cfg);
  // Canonical hp order, established once: indices sorted by the quad
  // (period, jitter, min distance, cost). Scanning interferers in this
  // order emits every message's hp rows already sorted.
  std::vector<std::size_t> by_quad(n);
  for (std::size_t k = 0; k < n; ++k) by_quad[k] = k;
  const auto quad = [&](std::size_t k) {
    const EventModel& em = r.activation(k);
    return std::make_tuple(em.period().count_ns(), em.jitter().count_ns(),
                           em.min_distance().count_ns(), r.cost(k).count_ns());
  };
  std::sort(by_quad.begin(), by_quad.end(),
            [&](std::size_t a, std::size_t b) { return quad(a) < quad(b); });

  static thread_local PackScratch scratch;
  for (std::size_t i = 0; i < n; ++i) pack_row(r, i, &by_quad, out, scratch, nullptr);
  close_bus(out);
}

ColumnarBus pack_bus(const KMatrix& km, const CanRtaConfig& cfg) {
  ColumnarBus bus;
  pack_bus(km, cfg, bus);
  return bus;
}

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t i, const ErrorModel& errors) {
  NullSolveRecorder rec;
  return solve_row(bus, i, errors, rec);
}

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t i) {
  return solve_columnar(bus, i, *bus.errors);
}

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t i, const ErrorModel& errors,
                             SolveTrace& trace) {
  trace = SolveTrace{};
  TracingSolveRecorder rec{trace};
  return solve_row(bus, i, errors, rec);
}

std::vector<MessageResult> solve_bus(const KMatrix& km, const CanRtaConfig& cfg) {
  // One arena per thread, so repeated analyses reuse its capacity.
  static thread_local ColumnarBus bus;
  pack_bus(km, cfg, bus);
  std::vector<MessageResult> out;
  out.reserve(km.size());
  for (std::size_t i = 0; i < km.size(); ++i) {
    MessageResult& r = out.emplace_back(solve_columnar(bus, i));
    r.name = km.messages()[i].name;
    r.id = km.messages()[i].id;
  }
  return out;
}

MessageContext build_message_context(const KMatrix& km, const CanRtaConfig& cfg,
                                     std::size_t index, ContextLabels* labels) {
  if (index >= km.size()) throw std::out_of_range("build_message_context: bad index");
  MessageContext ctx;
  ctx.name = km.messages()[index].name;
  ctx.id = km.messages()[index].id;
  begin_bus(km, cfg, ctx.row);
  // One row holds at most every other message: reserve once.
  for (auto* lane : {&ctx.row.hp_period, &ctx.row.hp_jitter, &ctx.row.hp_dmin, &ctx.row.hp_cost})
    lane->reserve(km.size());
  static thread_local PackScratch scratch;
  pack_row(thread_resolver(km, cfg), index, nullptr, ctx.row, scratch, labels);
  close_bus(ctx.row);
  return ctx;
}

MessageResult solve_message(const MessageContext& ctx) {
  NullSolveRecorder rec;
  MessageResult res = solve_row(ctx.row, 0, *ctx.row.errors, rec);
  res.name = ctx.name;
  res.id = ctx.id;
  return res;
}

ContextKey message_fingerprint(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index) {
  if (index >= km.size()) throw std::out_of_range("message_fingerprint: bad index");
  RowResolver& r = thread_resolver(km, cfg);
  static thread_local std::vector<MultisetAcc> groups;
  return row_key(r, index, cfg.errors->fingerprint(),
                 [&](std::size_t k) { return element_hash(r, k); }, groups);
}

std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg) {
  const std::size_t n = km.size();
  RowResolver& r = thread_resolver(km, cfg);
  // Every message's contribution is hashed once; each row then combines
  // the precomputed hashes of its interferers by addition.
  std::vector<ContextKey> element(n);
  for (std::size_t k = 0; k < n; ++k) element[k] = element_hash(r, k);
  const std::uint64_t errors_fp = cfg.errors->fingerprint();
  static thread_local std::vector<MultisetAcc> groups;
  std::vector<ContextKey> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = row_key(r, i, errors_fp, [&](std::size_t k) { return element[k]; }, groups);
  return keys;
}

}  // namespace symcan::analysis
