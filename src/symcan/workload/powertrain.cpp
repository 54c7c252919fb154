#include "symcan/workload/powertrain.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "symcan/util/rng.hpp"

namespace symcan {

namespace {

/// Typical power-train period grid (ms) with sampling weights: control
/// loops dominate, slow status/diagnostic frames fill the tail.
struct PeriodChoice {
  std::int64_t ms;
  double weight;
};
constexpr PeriodChoice period_grid[] = {
    {5, 0.06}, {10, 0.22}, {20, 0.22}, {50, 0.18},
    {100, 0.16}, {200, 0.08}, {500, 0.05}, {1000, 0.03},
};

std::int64_t sample_period_ms(Rng& rng) {
  double total = 0;
  for (const auto& p : period_grid) total += p.weight;
  double x = rng.uniform_real(0, total);
  for (const auto& p : period_grid) {
    if (x < p.weight) return p.ms;
    x -= p.weight;
  }
  return period_grid[std::size(period_grid) - 1].ms;
}

int sample_payload(Rng& rng) {
  // Power-train frames pack many signals; most use the full 8 bytes.
  const double x = rng.uniform_real(0, 1);
  if (x < 0.55) return 8;
  if (x < 0.70) return 6;
  if (x < 0.82) return 4;
  if (x < 0.92) return 2;
  return 1;
}

}  // namespace

KMatrix generate_powertrain(const PowertrainConfig& cfg) {
  if (cfg.message_count < 1) throw std::invalid_argument("generate_powertrain: message_count < 1");
  if (cfg.message_count > kMaxPowertrainMessages)
    throw std::invalid_argument("generate_powertrain: message_count > " +
                                std::to_string(kMaxPowertrainMessages) +
                                " (standard ids from 0x100 to 0x7FF)");
  if (cfg.ecu_count < 1) throw std::invalid_argument("generate_powertrain: ecu_count < 1");
  if (cfg.gateway_count >= cfg.ecu_count)
    throw std::invalid_argument("generate_powertrain: gateways must be < ecus");
  if (cfg.target_utilization <= 0 || cfg.target_utilization >= 1)
    throw std::invalid_argument("generate_powertrain: target_utilization must be in (0,1)");

  Rng rng{cfg.seed};
  KMatrix km{"powertrain", BitTiming{cfg.bitrate_bps}};

  // Nodes: engine/transmission style names, gateways last.
  static const char* base_names[] = {"ENG", "TRANS", "ABS", "ESP", "DASH", "EPS", "TCU", "BCM"};
  std::vector<std::string> node_names;
  for (int i = 0; i < cfg.ecu_count - cfg.gateway_count; ++i) {
    std::string n = i < static_cast<int>(std::size(base_names))
                        ? base_names[i]
                        : "ECU" + std::to_string(i);
    node_names.push_back(n);
    EcuNode node;
    node.name = n;
    node.controller = rng.chance(cfg.basic_can_fraction) ? ControllerType::kBasicCan
                                                         : ControllerType::kFullCan;
    node.tx_buffers = node.controller == ControllerType::kBasicCan
                          ? static_cast<int>(rng.uniform_int(1, 3))
                          : 1;
    km.add_node(std::move(node));
  }
  for (int g = 0; g < cfg.gateway_count; ++g) {
    std::string n = cfg.gateway_count == 1 ? "GW" : "GW" + std::to_string(g);
    node_names.push_back(n);
    EcuNode node;
    node.name = n;
    node.controller = ControllerType::kFullCan;
    node.is_gateway = true;
    km.add_node(std::move(node));
  }

  // Draw the raw rows.
  struct Row {
    std::int64_t period_ms;
    int payload;
    std::size_t sender;
    bool known_jitter;
    double jitter_frac;  // for known-jitter rows: 10..30 % of period
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(cfg.message_count));
  for (int i = 0; i < cfg.message_count; ++i) {
    Row r;
    r.period_ms = sample_period_ms(rng);
    r.payload = sample_payload(rng);
    // Gateways forward proportionally more frames than regular ECUs send.
    const bool from_gateway = rng.chance(0.25 * cfg.gateway_count);
    if (from_gateway) {
      r.sender = node_names.size() - 1 -
                 static_cast<std::size_t>(rng.uniform_int(0, cfg.gateway_count - 1));
    } else {
      r.sender = rng.index(node_names.size() - static_cast<std::size_t>(cfg.gateway_count));
    }
    r.known_jitter = rng.chance(cfg.known_jitter_fraction);
    r.jitter_frac = rng.uniform_real(0.10, 0.30);
    rows.push_back(r);
  }

  // Scale periods to hit the target worst-case utilization.
  double util = 0;
  const BitTiming timing{cfg.bitrate_bps};
  for (const auto& r : rows) {
    const auto bits = frame_bits_worst_case(FrameFormat::kStandard, r.payload);
    util += static_cast<double>(bits) * timing.bit_time().as_s() /
            (static_cast<double>(r.period_ms) * 1e-3);
  }
  const double scale = util / cfg.target_utilization;

  // Assign IDs: rank by period (rate-monotonic-ish), then perturb. Real
  // matrices cluster IDs by function with historical accretion, so a
  // fraction of rows get their rank displaced by a random amount.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rows[a].period_ms < rows[b].period_ms;
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!rng.chance(cfg.id_disorder)) continue;
    const std::int64_t span = std::max<std::int64_t>(1, static_cast<std::int64_t>(order.size()) / 3);
    const std::int64_t j = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(i) + rng.uniform_int(-span, span), 0,
        static_cast<std::int64_t>(order.size()) - 1);
    std::swap(order[i], order[static_cast<std::size_t>(j)]);
  }

  // Materialize messages. IDs spread over 0x100.. with gaps, as real
  // matrices leave room for extension; a matrix too large for the gaps
  // (more than 224 messages) gets dense IDs from 0x100 instead.
  const bool spaced = 0x100 + (order.size() - 1) * 8 + 5 <= max_standard_id;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const Row& r = rows[order[rank]];
    CanMessage m;
    m.name = "M" + std::to_string(order[rank]);
    const auto gap = static_cast<std::size_t>(rng.uniform_int(0, 5));
    m.id = static_cast<CanId>(spaced ? 0x100 + rank * 8 + gap : 0x100 + rank);
    m.format = FrameFormat::kStandard;
    m.payload_bytes = r.payload;
    const double period_us = static_cast<double>(r.period_ms) * 1000.0 * scale;
    m.period = Duration::us(static_cast<std::int64_t>(std::llround(period_us)));
    m.jitter_known = r.known_jitter;
    m.jitter = r.known_jitter
                   ? Duration::ns(static_cast<std::int64_t>(r.jitter_frac *
                                                            static_cast<double>(m.period.count_ns())))
                   : Duration::zero();
    m.deadline_policy = DeadlinePolicy::kPeriod;
    m.sender = node_names[r.sender];
    // 1..3 receivers among the other nodes.
    const int n_recv = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < n_recv; ++k) {
      const std::string& cand = node_names[rng.index(node_names.size())];
      if (cand == m.sender) continue;
      if (std::find(m.receivers.begin(), m.receivers.end(), cand) != m.receivers.end()) continue;
      m.receivers.push_back(cand);
    }
    if (m.receivers.empty()) m.receivers.push_back(m.sender == node_names[0] ? node_names[1]
                                                                             : node_names[0]);
    km.add_message(std::move(m));
  }

  km.validate();
  return km;
}

void assume_jitter_fraction(KMatrix& km, double fraction, bool override_known) {
  if (fraction < 0) throw std::invalid_argument("assume_jitter_fraction: negative fraction");
  for (auto& m : km.messages()) {
    if (m.jitter_known && !override_known) continue;
    m.jitter = Duration::ns(
        static_cast<std::int64_t>(fraction * static_cast<double>(m.period.count_ns())));
  }
}

void snap_periods(KMatrix& km, Duration grid) {
  if (grid <= Duration::zero()) throw std::invalid_argument("snap_periods: grid must be > 0");
  for (auto& m : km.messages()) {
    const std::int64_t steps = std::max<std::int64_t>(1, m.period / grid);
    m.period = steps * grid;
    m.jitter = min(m.jitter, m.period);  // keep J <= T where it was
    if (m.tt_offset && *m.tt_offset >= m.period) m.tt_offset = Duration::zero();
  }
  km.validate();
}

std::size_t assign_tt_offsets(KMatrix& km, Duration granularity) {
  if (granularity <= Duration::zero())
    throw std::invalid_argument("assign_tt_offsets: granularity must be > 0");

  // Per sender: place messages one by one (shortest period first, as they
  // repeat most often); each candidate offset is scored by the release
  // density it creates against the already-placed schedule, evaluated
  // over the pairwise-lcm pattern via modular distance to the nearest
  // existing release.
  std::size_t assigned = 0;
  for (const auto& node : km.nodes()) {
    std::vector<CanMessage*> mine;
    for (auto& m : km.messages())
      if (m.sender == node.name) mine.push_back(&m);
    std::sort(mine.begin(), mine.end(),
              [](const CanMessage* a, const CanMessage* b) { return a->period < b->period; });

    struct Placed {
      Duration period;
      Duration offset;
    };
    std::vector<Placed> placed;
    for (CanMessage* m : mine) {
      const std::int64_t slots = std::max<std::int64_t>(1, m->period / granularity);
      Duration best_offset = Duration::zero();
      double best_score = -1;
      for (std::int64_t s = 0; s < slots; ++s) {
        const Duration candidate = s * granularity;
        // Score: smallest modular distance from any release of `candidate`
        // to any release of an already-placed message, approximated on
        // the gcd lattice (releases of (T1,O1) and (T2,O2) approach each
        // other down to (O1-O2) mod gcd(T1,T2)).
        double score = 1e18;
        for (const auto& p : placed) {
          const std::int64_t g = std::gcd(m->period.count_ns(), p.period.count_ns());
          std::int64_t d = (candidate.count_ns() - p.offset.count_ns()) % g;
          if (d < 0) d += g;
          const double dist = static_cast<double>(std::min(d, g - d));
          score = std::min(score, dist);
        }
        if (score > best_score) {
          best_score = score;
          best_offset = candidate;
        }
      }
      m->tt_offset = best_offset;
      placed.push_back({m->period, best_offset});
      ++assigned;
    }
  }
  km.validate();
  return assigned;
}

void scale_periods(KMatrix& km, double factor) {
  if (factor <= 0) throw std::invalid_argument("scale_periods: factor must be > 0");
  for (auto& m : km.messages()) {
    m.period = Duration::ns(
        static_cast<std::int64_t>(factor * static_cast<double>(m.period.count_ns())));
    m.jitter = Duration::ns(
        static_cast<std::int64_t>(factor * static_cast<double>(m.jitter.count_ns())));
    if (m.tt_offset)
      m.tt_offset = Duration::ns(
          static_cast<std::int64_t>(factor * static_cast<double>(m.tt_offset->count_ns())));
  }
}

}  // namespace symcan
