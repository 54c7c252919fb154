// Pinned optimizer results: the full GaResult of SPEA2 and NSGA-II and
// the exact Audsley / robust-PA orders, compared against checked-in
// expectations (tests/opt/pins/, SYMCAN_PINS_DIR). Doubles are written as
// hex floats, so a match is bit-exact. The other optimizer suites only
// compare runs with each other; these pins catch any change to the
// search itself.
//
// Every GA pin is checked at parallelism 1 and 4, with the RTA cache on
// and off: all four runs must render the same text. To regenerate after
// an intentional change to the search:
//   SYMCAN_UPDATE_GOLDEN=1 ctest --test-dir build -R opt_optimizer_pins

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "symcan/analysis/presets.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/opt/nsga2.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix case_matrix() { return generate_powertrain(PowertrainConfig::case_study()); }

KMatrix small_matrix() {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.message_count = 20;
  cfg.ecu_count = 4;
  return generate_powertrain(cfg);
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void render_order(std::ostream& os, const PriorityOrder& order) {
  for (const std::size_t i : order) os << ' ' << i;
}

void render_individual(std::ostream& os, const GaIndividual& ind) {
  os << hex(ind.misses) << ' ' << hex(ind.robustness_cost) << " |";
  render_order(os, ind.order);
  os << '\n';
}

std::string render(const GaResult& r) {
  std::ostringstream os;
  os << "evaluations " << r.evaluations << "\nbest ";
  render_individual(os, r.best);
  os << "history";
  for (const double m : r.best_misses_history) os << ' ' << hex(m);
  os << "\npareto " << r.pareto.size() << '\n';
  for (const GaIndividual& p : r.pareto) render_individual(os, p);
  return os.str();
}

std::string pin_path(const std::string& name) { return std::string(SYMCAN_PINS_DIR) + "/" + name; }

bool update_mode() {
  const char* v = std::getenv("SYMCAN_UPDATE_GOLDEN");
  return v && std::string(v) == "1";
}

/// Compare `actual` with the named pin file (or rewrite it).
void check_pin(const std::string& name, const std::string& actual) {
  if (update_mode()) {
    std::ofstream{pin_path(name)} << actual;
    return;
  }
  std::ifstream f{pin_path(name)};
  ASSERT_TRUE(f) << "cannot read " << pin_path(name);
  std::ostringstream want;
  want << f.rdbuf();
  EXPECT_EQ(actual, want.str()) << name << " drifted; run with SYMCAN_UPDATE_GOLDEN=1 if "
                                << "the search was changed on purpose";
}

GaConfig pin_config(const KMatrix& km) {
  GaConfig cfg;
  cfg.population = 16;
  cfg.archive = 8;
  cfg.generations = 12;
  cfg.rta = worst_case_assumptions();
  cfg.eval_fractions = {0.25, 0.4};
  cfg.seeds = {current_order(km)};
  return cfg;
}

/// Both pinned matrices, each run at parallelism 1 and 4 with the cache
/// on and off; every variant must render exactly the pinned text.
void check_optimizer(const std::string& name, GaResult (*optimize)(const KMatrix&, const GaConfig&)) {
  const std::pair<const char*, KMatrix> matrices[] = {{"case_study", case_matrix()},
                                                      {"small20", small_matrix()}};
  std::string pinned;
  for (const auto& [label, km] : matrices) {
    std::string first;
    for (const int jobs : {1, 4})
      for (const bool cache : {true, false}) {
        GaConfig cfg = pin_config(km);
        cfg.parallelism = jobs;
        cfg.cache.enabled = cache;
        const std::string text = render(optimize(km, cfg));
        if (first.empty())
          first = text;
        else
          EXPECT_EQ(text, first) << label << " jobs " << jobs << " cache " << cache;
      }
    pinned += std::string("[") + label + "]\n" + first;
  }
  check_pin(name, pinned);
}

TEST(OptimizerPins, Spea2) { check_optimizer("spea2.txt", optimize_priorities); }

TEST(OptimizerPins, Nsga2) { check_optimizer("nsga2.txt", optimize_priorities_nsga2); }

TEST(OptimizerPins, AudsleyAndRobustOrders) {
  const KMatrix km = case_matrix();
  const CanRtaConfig rta = worst_case_assumptions();
  const auto audsley = audsley_order(km, rta, 0.25);
  const auto robust = robust_priority_order(km, rta, 0.0);
  ASSERT_TRUE(audsley.has_value());
  ASSERT_TRUE(robust.has_value());
  std::ostringstream os;
  os << "audsley 0.25";
  render_order(os, *audsley);
  os << "\nrobust 0.0";
  render_order(os, *robust);
  os << '\n';
  check_pin("assignment.txt", os.str());
}

}  // namespace
}  // namespace symcan
