#pragma once

// Synthetic power-train K-Matrix generation.
//
// The paper's case study analyzes "a real-world power train CAN bus from
// the automotive industry. Several ECUs ... including gateways are
// attached to that bus, each sending and receiving a total number of more
// than 50 messages." That matrix is proprietary; this generator produces
// matrices with the same structural statistics so every experiment of the
// paper can run on reproducible, seeded inputs:
//
//  * 500 kbit/s bus, ~50 % worst-case utilization by default;
//  * periods drawn from the typical power-train grid (5..1000 ms),
//    weighted toward the 10..100 ms control loops;
//  * payloads weighted toward full 8-byte frames;
//  * CAN IDs correlated with rate (faster messages get better IDs) but
//    deliberately perturbed — real matrices grow historically and are
//    never priority-optimal, which is exactly what Section 4.3 optimizes;
//  * a minority of messages with known jitter in the 10..30 % range of
//    their period (Section 4: "We knew the jitters of only a few
//    messages"), the rest marked as assumptions.

#include <cstdint>
#include <string>
#include <vector>

#include "symcan/can/kmatrix.hpp"

namespace symcan {

/// Largest message_count generate_powertrain() accepts: one standard
/// 11-bit id each from 0x100 up to 0x7FF.
inline constexpr int kMaxPowertrainMessages = static_cast<int>(max_standard_id) - 0x100 + 1;

struct PowertrainConfig {
  std::uint64_t seed = 42;
  int message_count = 56;  ///< 1 .. kMaxPowertrainMessages.
  int ecu_count = 6;       ///< Including gateways.
  int gateway_count = 1;   ///< Gateways forward body/chassis traffic in.
  std::int64_t bitrate_bps = 500'000;

  /// Target worst-case-stuffing utilization; periods are scaled uniformly
  /// to land within ~1 % of this.
  double target_utilization = 0.50;

  /// Fraction of messages whose jitter the OEM "knows" (set in the matrix
  /// with jitter_known = true), drawn as 10..30 % of the period.
  double known_jitter_fraction = 0.2;

  /// Fraction of ECUs using basicCAN controllers (older nodes).
  double basic_can_fraction = 0.3;

  /// How scrambled the ID assignment is relative to rate-monotonic order:
  /// 0 = perfectly rate-ordered, 1 = fully random. Historical matrices
  /// sit in between.
  double id_disorder = 0.35;

  /// The calibrated configuration used to reproduce the paper's case
  /// study (Figures 4 and 5): a heavily loaded bus whose historically
  /// grown ID assignment loses messages under pessimistic assumptions but
  /// can be optimized to zero loss at 25 % jitter. Power-train nodes use
  /// fullCAN controllers (per-message buffers); the basicCAN FIFO
  /// degradation is explored separately in the controller ablation.
  static PowertrainConfig case_study() {
    PowertrainConfig cfg;
    cfg.target_utilization = 0.70;
    cfg.id_disorder = 0.60;
    cfg.basic_can_fraction = 0.0;
    return cfg;
  }
};

/// Generate a validated single-bus K-Matrix per the configuration.
/// Deterministic in cfg.seed.
KMatrix generate_powertrain(const PowertrainConfig& cfg);

/// Set every message whose jitter is not "known" to `fraction` of its own
/// period — the what-if knob of the paper's experiments (Sections 4.1,
/// 4.2; x-axis of Figures 4 and 5). Known-jitter messages keep their
/// value unless `override_known` is set.
void assume_jitter_fraction(KMatrix& km, double fraction, bool override_known = false);

/// Scale all periods by `factor` (used to explore utilization levels).
void scale_periods(KMatrix& km, double factor);

/// Snap every period down to the nearest multiple of `grid` (at least one
/// grid step). Slightly conservative (shorter periods = more load).
/// TimeTable schedules need grid-aligned periods to keep per-sender
/// hyperperiods small; real K-Matrices are grid-aligned by construction,
/// the synthetic generator's utilization scaling is not.
void snap_periods(KMatrix& km, Duration grid);

/// Assign TimeTable offsets (paper Section 5.2) to every message of every
/// sender, greedily spreading releases: messages are processed by
/// ascending period and each gets the offset (on a `granularity` grid
/// within its period) that minimizes the sender's worst release clustering
/// over the emerging schedule. Returns the number of messages scheduled.
/// Offsets only desynchronize messages of the *same* sender — CAN nodes
/// share no global clock, so cross-node offsets would be unsound and are
/// not produced.
std::size_t assign_tt_offsets(KMatrix& km, Duration granularity = Duration::us(500));

}  // namespace symcan
