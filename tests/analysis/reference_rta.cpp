#include "reference_rta.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "symcan/analysis/tt_schedule.hpp"
#include "symcan/model/event_model.hpp"

namespace symcan::reference {

MessageResult analyze_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index,
                              const ErrorModel& errors) {
  const auto& msgs = km.messages();
  const CanMessage& m = msgs.at(index);
  const BitTiming& timing = km.timing();
  const auto cost = [&](const CanMessage& k) { return k.wcet(timing, cfg.worst_case_stuffing); };

  MessageResult res;
  res.name = m.name;
  res.id = m.id;
  res.bcrt = m.bcet(timing);
  CanMessage spec = m;
  if (cfg.deadline_override && m.deadline_policy != DeadlinePolicy::kExplicit)
    spec.deadline_policy = *cfg.deadline_override;
  res.deadline = spec.deadline();

  // A basicCAN controller sends its committed FIFO in order, so m
  // competes at the lowest priority of its node's messages.
  const EcuNode* node = km.find_node(m.sender);
  const bool basic_can = cfg.model_controller_queues && node != nullptr &&
                         node->controller == ControllerType::kBasicCan;
  std::uint64_t level = m.arbitration_rank();
  if (basic_can)
    for (const CanMessage& k : msgs)
      if (k.sender == m.sender) level = std::max(level, k.arbitration_rank());

  // Blocking: one started frame below the level, plus the largest
  // tx_buffers same-node lower-priority frames already committed.
  Duration bus_blocking = Duration::zero();
  for (const CanMessage& k : msgs)
    if (k.arbitration_rank() > level) bus_blocking = std::max(bus_blocking, cost(k));
  Duration intra_blocking = Duration::zero();
  if (basic_can) {
    std::vector<Duration> committed;
    for (const CanMessage& k : msgs)
      if (k.sender == m.sender && k.arbitration_rank() > m.arbitration_rank())
        committed.push_back(cost(k));
    std::sort(committed.begin(), committed.end(), std::greater<>{});
    for (std::size_t f = 0; f < committed.size() && f < static_cast<std::size_t>(node->tx_buffers);
         ++f)
      intra_blocking += committed[f];
  }
  const Duration blocking = bus_blocking + intra_blocking;
  res.blocking = blocking;

  // A fault can force a retransmission of any frame at or above the
  // level, of m itself, or of the blocking frame.
  Duration max_retx = std::max(cost(m), bus_blocking);
  for (const CanMessage& k : msgs)
    if (k.arbitration_rank() <= level) max_retx = std::max(max_retx, cost(k));

  // Interferers: other nodes' frames above the level, and same-node
  // frames above m itself. Offset-scheduled frames of one node form a
  // TtGroup; a group that cannot be built interferes member by member.
  std::vector<std::pair<EventModel, Duration>> hp;
  std::map<std::string, std::vector<TtGroup::Member>> offset_members;
  for (const CanMessage& k : msgs) {
    if (&k == &m) continue;
    const bool interferes = k.sender == m.sender ? k.arbitration_rank() < m.arbitration_rank()
                                                 : k.arbitration_rank() < level;
    if (!interferes) continue;
    if (cfg.use_offsets && k.tt_offset)
      offset_members[k.sender].push_back({k.period, *k.tt_offset, k.jitter, cost(k)});
    else
      hp.emplace_back(k.activation(), cost(k));
  }
  std::vector<TtGroup> groups;
  for (const auto& [sender, members] : offset_members) {
    if (auto g = TtGroup::build(members)) {
      groups.push_back(std::move(*g));
    } else {
      for (const TtGroup::Member& k : members)
        hp.emplace_back(EventModel::periodic_jitter(k.period, k.jitter), k.cost);
    }
  }

  const auto interference = [&](Duration t) {
    Duration sum = Duration::zero();
    for (const auto& [em, c] : hp) sum += em.eta_plus(t) * c;
    for (const TtGroup& g : groups) sum += g.interference(t);
    return sum;
  };
  const auto faults = [&](Duration t) {
    return t > Duration::zero() ? errors.overhead(t, max_retx, timing) : Duration::zero();
  };
  // Least fixed point of f above x, counting every evaluation of f;
  // infinite once an iterate passes the horizon.
  std::int64_t iterations = 0;
  const auto solve = [&](Duration x, const auto& f) {
    for (;;) {
      ++iterations;
      const Duration next = f(x);
      if (next == x) return x;
      if (next > cfg.horizon) return Duration::infinite();
      x = next;
    }
  };

  const EventModel own = m.activation();
  const Duration c_m = cost(m);
  const Duration busy = solve(blocking + c_m, [&](Duration t) {
    return blocking + own.eta_plus(t) * c_m + interference(t) + faults(t);
  });
  res.fixedpoint_iterations = iterations;
  res.schedulable = false;
  if (busy.is_infinite()) {
    res.busy_period = busy;
    res.diverged = true;
    return res;
  }
  res.busy_period = busy;
  res.instances = own.eta_plus(busy);

  // Every instance of the busy period, each from its own arrival.
  Duration wcrt = Duration::zero();
  for (std::int64_t q = 0; q < res.instances; ++q) {
    const Duration queued = blocking + q * c_m;
    const Duration w = solve(queued, [&](Duration t) {
      return queued + interference(t + timing.bit_time()) + faults(t + c_m);
    });
    res.fixedpoint_iterations = iterations;
    if (w.is_infinite()) {
      res.diverged = true;
      return res;
    }
    wcrt = std::max(wcrt, w + c_m - own.delta_min(q + 1));
  }
  res.wcrt = wcrt;
  res.schedulable = res.deadline.is_infinite() || wcrt <= res.deadline;
  return res;
}

}  // namespace symcan::reference
