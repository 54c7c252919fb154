// Deterministic allocation gate for the busy-period kernel: once a bus is
// packed, solving its rows performs ZERO heap allocations, through both
// solve_columnar() overloads. The global allocation functions — every
// form, nothrow included, so a sanitizer's allocator never sees a
// mismatched pair — are replaced with a counting shim to prove it. This
// is what the BM_GaOptimize wall-clock gate is meant to catch, counted
// instead of timed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace symcan {
namespace {

struct Preset {
  const char* name;
  CanRtaConfig cfg;
};

/// The five assumption presets of the reference-differential battery.
std::vector<Preset> presets() {
  std::vector<Preset> out;
  out.push_back({"default", CanRtaConfig{}});
  CanRtaConfig no_offsets;
  no_offsets.use_offsets = false;
  out.push_back({"no_offsets", no_offsets});
  out.push_back({"best_case", best_case_assumptions()});
  out.push_back({"worst_case", worst_case_assumptions()});
  CanRtaConfig no_queues = worst_case_assumptions();
  no_queues.model_controller_queues = false;
  out.push_back({"worst_case_no_queues", no_queues});
  return out;
}

/// The case study, plus a smaller bus whose senders are offset-scheduled
/// on a snapped period grid so the solves also walk built TtGroups (the
/// case study itself snapped this way takes seconds per pass, all of it
/// in TtGroup::interference).
std::vector<KMatrix> matrices() {
  std::vector<KMatrix> out;
  out.push_back(generate_powertrain(PowertrainConfig::case_study()));
  PowertrainConfig wl;
  wl.seed = 8;
  wl.message_count = 24;
  KMatrix offsets = generate_powertrain(wl);
  snap_periods(offsets, Duration::ms(5));
  assign_tt_offsets(offsets);
  out.push_back(std::move(offsets));
  return out;
}

TEST(ColumnarAlloc, WarmSolvesAllocateNothing) {
  const SporadicErrors errors{Duration::ms(10)};
  std::size_t groups = 0;
  for (const KMatrix& km : matrices()) {
    for (const Preset& p : presets()) {
      analysis::ColumnarBus bus;
      analysis::pack_bus(km, p.cfg, bus);
      analysis::pack_bus(km, p.cfg, bus);  // warm: repacking reuses capacity
      groups += bus.tt_groups.size();
      std::int64_t iterations = 0;
      const long before = g_allocations.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < bus.size(); ++i) {
        iterations += analysis::solve_columnar(bus, i).fixedpoint_iterations;
        iterations += analysis::solve_columnar(bus, i, errors).fixedpoint_iterations;
      }
      const long after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0) << "preset " << p.name << ": a packed solve allocated";
      EXPECT_GT(iterations, 0);
    }
  }
  EXPECT_GT(groups, 0u) << "no offset group was solved";
}

TEST(ColumnarAlloc, CounterSeesAllocations) {
  // The zero above must come from the kernel, not from a shim that never
  // counts: a fresh pack allocates its columns.
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  const long before = g_allocations.load(std::memory_order_relaxed);
  const analysis::ColumnarBus bus = analysis::pack_bus(km, CanRtaConfig{});
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0);
  EXPECT_EQ(bus.size(), km.size());
}

}  // namespace
}  // namespace symcan
