#pragma once

// A deliberately naive reference for the CAN response-time analysis, used
// only as a test oracle for the production busy-period core.
//
// It works one message at a time, straight from the K-Matrix, with the
// textbook equations of Davis, Burns, Bril & Lukkien (RTS 35, 2007) plus
// the model extensions symcan documents (basicCAN controller queues,
// offset groups, fault recovery). It reads the model only through its own
// primitives — CanMessage::wcet/bcet/activation/deadline, EventModel,
// TtGroup::build with its periodic-jitter fallback and
// ErrorModel::overhead — and has no packing, sorting, caching or early
// exit. Every production entry point must equal it in every
// MessageResult field, iteration counts included.

#include <cstddef>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/error_model.hpp"
#include "symcan/can/kmatrix.hpp"

namespace symcan::reference {

/// Verdict for message `index` of `km` under `cfg`, faults drawn from
/// `errors` instead of cfg.errors.
MessageResult analyze_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index,
                              const ErrorModel& errors);

/// Verdict for message `index` of `km` under `cfg`.
inline MessageResult analyze_message(const KMatrix& km, const CanRtaConfig& cfg,
                                     std::size_t index) {
  return analyze_message(km, cfg, index, *cfg.errors);
}

}  // namespace symcan::reference
