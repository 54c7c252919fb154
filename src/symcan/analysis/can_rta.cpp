#include "symcan/analysis/can_rta.hpp"

#include <stdexcept>

#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/rta_context.hpp"
#include "symcan/obs/obs.hpp"

namespace symcan {

std::size_t BusResult::miss_count() const {
  std::size_t n = 0;
  for (const auto& m : messages)
    if (!m.schedulable) ++n;
  return n;
}

double BusResult::miss_fraction() const {
  if (messages.empty()) return 0;
  return static_cast<double>(miss_count()) / static_cast<double>(messages.size());
}

void flush_rta_observations(const BusResult& out) {
  if (!obs::enabled()) return;
  // Convergence cost was counted locally per message; flush it in one
  // pass so the fixed-point loops themselves stay atomic-free.
  auto& m = obs::metrics();
  std::int64_t total_iters = 0;
  std::int64_t diverged = 0;
  auto& per_message = m.histogram("rta.can.iterations_per_message");
  for (const auto& r : out.messages) {
    total_iters += r.fixedpoint_iterations;
    diverged += r.diverged ? 1 : 0;
    per_message.observe(static_cast<double>(r.fixedpoint_iterations));
  }
  m.counter("rta.can.analyses").add(1);
  m.counter("rta.can.messages").add(static_cast<std::int64_t>(out.messages.size()));
  m.counter("rta.can.fixedpoint_iterations").add(total_iters);
  m.counter("rta.can.diverged").add(diverged);
}

CanRta::CanRta(KMatrix km, CanRtaConfig cfg) : km_{std::move(km)}, cfg_{std::move(cfg)} {
  if (!cfg_.errors) throw std::invalid_argument("CanRta: error model must not be null");
  km_.validate();
}

MessageResult CanRta::analyze_message(std::size_t index) const {
  // Resolve the message into one packed row, then run the fixed point on
  // it (rta_context.hpp). IncrementalRta memoizes between these two calls.
  return analysis::solve_message(analysis::build_message_context(km_, cfg_, index));
}

BusResult CanRta::analyze() const {
  SYMCAN_OBS_SPAN("rta.can.analyze");
  BusResult out;
  out.utilization = km_.utilization(cfg_.worst_case_stuffing);
  out.messages = analysis::solve_bus(km_, cfg_);
  flush_rta_observations(out);
  return out;
}

}  // namespace symcan
