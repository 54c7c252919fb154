#include "symcan/pipeline/stages.hpp"

#include <charconv>
#include <concepts>
#include <ostream>
#include <string>
#include <string_view>
#include <stdexcept>

#include "symcan/analysis/load.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/sim/validation.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/table.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::pipeline {

const char* to_string(AssumptionPreset preset) {
  switch (preset) {
    case AssumptionPreset::kWorstCase: return "worst-case";
    case AssumptionPreset::kBestCase: return "best-case";
    case AssumptionPreset::kDefault: break;
  }
  return "default";
}

bool preset_from_string(const std::string& text, AssumptionPreset& out) {
  if (text == "default") out = AssumptionPreset::kDefault;
  else if (text == "worst-case") out = AssumptionPreset::kWorstCase;
  else if (text == "best-case") out = AssumptionPreset::kBestCase;
  else return false;
  return true;
}

CanRtaConfig assumptions_for(AssumptionPreset preset) {
  if (preset == AssumptionPreset::kWorstCase) return worst_case_assumptions();
  if (preset == AssumptionPreset::kBestCase) return best_case_assumptions();
  // Default: stuffing + no errors + period deadlines.
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  return cfg;
}

void apply_matrix_spec(KMatrix& km, const MatrixSpec& spec) {
  if (spec.jitter >= 0) assume_jitter_fraction(km, spec.jitter, spec.override_known);
}

SimErrorProcess sim_errors_for(const ErrorSpec& spec) {
  const auto gap = [&](std::int64_t fallback) {
    const std::int64_t ms = spec.gap_ms < 0 ? fallback : spec.gap_ms;
    if (ms <= 0) throw std::invalid_argument("error gap must be positive");
    return Duration::ms(ms);
  };
  if (spec.kind == "sporadic") return SimErrorProcess::sporadic(gap(40));
  if (spec.kind == "burst") return SimErrorProcess::burst(gap(25), 4);
  if (spec.kind != "none") throw std::invalid_argument("--errors must be none|sporadic|burst");
  return SimErrorProcess::none();
}

std::shared_ptr<const ErrorModel> matching_error_model(const SimErrorProcess& p) {
  switch (p.kind) {
    case SimErrorProcess::Kind::kSporadic: return std::make_shared<SporadicErrors>(p.min_gap);
    case SimErrorProcess::Kind::kBurst:
      return std::make_shared<BurstErrors>(p.min_gap, p.burst_len);
    case SimErrorProcess::Kind::kNone: break;
  }
  return std::make_shared<NoErrors>();
}

namespace {

void flush(std::string& text, std::ostream& out) {
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  text.clear();
}

/// A table cell rendered into its own stack buffer; lives until the end of
/// the full expression that builds the row.
struct Cell {
  char buf[kDurationChars];
  std::size_t len = 0;

  Cell() = default;
  explicit Cell(Duration d) : len{format_duration(buf, d)} {}
  template <std::integral T>
  explicit Cell(T v) : len{format_integer(buf, v)} {}
  operator std::string_view() const { return {buf, len}; }
};

/// "0x%03X": upper-case hex, at least three digits.
Cell hex_id(CanId id) {
  char digits[8];
  const auto n = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, id, 16).ptr - digits);
  Cell c;
  c.buf[c.len++] = '0';
  c.buf[c.len++] = 'x';
  for (std::size_t i = n; i < 3; ++i) c.buf[c.len++] = '0';
  for (std::size_t i = 0; i < n; ++i)
    c.buf[c.len++] = digits[i] >= 'a' ? static_cast<char>(digits[i] - 'a' + 'A') : digits[i];
  return c;
}

/// "bus NAME: N messages, load U% of B kbit/s\n"
void append_load_line(std::string& out, const KMatrix& km, const LoadReport& load) {
  out += "bus ";
  out += std::string_view{km.bus_name().c_str()};  // printf %s: up to the first NUL
  out += ": ";
  append_integer(out, km.size());
  out += " messages, load ";
  append_fixed(out, 100 * load.utilization, 1);
  out += "% of ";
  append_fixed(out, load.bandwidth_bps / 1000, 0);
  out += " kbit/s\n";
}

/// "LABEL: N/M\n", the count line under a verdict table.
void append_count_line(std::string& out, const char* label, std::size_t n, std::size_t of) {
  out += label;
  out += ": ";
  append_integer(out, n);
  out += '/';
  append_integer(out, of);
  out += '\n';
}

}  // namespace

int render_analyze(const KMatrix& km, const CanRtaConfig& cfg, std::ostream& out,
                   analysis::IncrementalRta* cache) {
  SYMCAN_OBS_SPAN("pipeline.analyze");
  std::string text;
  const LoadReport load = analyze_load(km, cfg.worst_case_stuffing);
  append_load_line(text, km, load);
  // The load line goes out before the analysis runs: when the analysis
  // throws, the CLI's stdout still shows which bus it was.
  flush(text, out);

  const BusResult res = cache ? cache->analyze(km, cfg) : CanRta{km, cfg}.analyze();
  TextTable t;
  t.header({"message", "id", "wcrt", "deadline", "slack", "verdict"});
  for (const std::size_t i : km.priority_order()) {
    const MessageResult& m = res.messages[i];
    t.row({m.name, hex_id(m.id), Cell{m.wcrt}, Cell{m.deadline}, Cell{m.slack()},
           m.schedulable ? "ok" : "MISS"});
  }
  t.append_to(text);
  append_count_line(text, "misses", res.miss_count(), res.messages.size());
  flush(text, out);
  return res.all_schedulable() ? 0 : 1;
}

int render_prob(const KMatrix& km, const CanRtaConfig& cfg, const ProbSpec& spec,
                std::ostream& out, analysis::IncrementalRta* cache) {
  SYMCAN_OBS_SPAN("pipeline.prob");
  ProbRtaConfig pcfg;
  pcfg.rta = cfg;
  pcfg.fault_ppm = spec.fault_ppm;
  pcfg.stuff_ppm = spec.stuff_ppm;
  pcfg.jitter_ppm = spec.jitter_ppm;
  pcfg.max_rungs = spec.max_rungs;
  pcfg.parallelism = spec.jobs;
  pcfg.tile = spec.tile;
  analysis::validate_prob_config(pcfg);

  std::string text;
  const LoadReport load = analyze_load(km, cfg.worst_case_stuffing);
  append_load_line(text, km, load);
  text += "probabilities (ppm): fault ";
  append_integer(text, spec.fault_ppm);
  text += ", worst-case stuffing ";
  append_integer(text, spec.stuff_ppm);
  text += ", jitter ";
  append_integer(text, spec.jitter_ppm);
  text += '\n';
  flush(text, out);

  const ProbBusResult res =
      cache ? cache->analyze_prob(km, pcfg) : analysis::analyze_prob(km, pcfg);
  TextTable t;
  t.header({"message", "id", "det wcrt", "deadline", "miss ppm", "atoms", "verdict"});
  for (const std::size_t i : km.priority_order()) {
    const ProbMessageResult& m = res.messages[i];
    t.row({m.det.name, hex_id(m.det.id), Cell{m.det.wcrt}, Cell{m.det.deadline},
           Cell{m.miss_ppm()}, Cell{m.response.atoms().size()},
           m.miss_weight == 0 ? "ok" : "AT-RISK"});
  }
  t.append_to(text);
  append_count_line(text, "at-risk", res.miss_count(), res.messages.size());
  flush(text, out);
  return res.miss_count() == 0 ? 0 : 1;
}

int render_explain(const KMatrix& km, const CanRtaConfig& cfg, const std::string& message,
                   bool json, std::ostream& out) {
  SYMCAN_OBS_SPAN("pipeline.explain");
  const std::optional<std::size_t> index = analysis::find_message(km, message);
  if (!index)
    throw std::invalid_argument("no message named '" + message + "' in " + km.bus_name());
  const analysis::Provenance p = analysis::explain_message(km, cfg, *index);
  if (json)
    out << analysis::provenance_to_json(p) << "\n";
  else
    out << analysis::provenance_to_text(p);
  return p.result.schedulable ? 0 : 1;
}

int render_validate(const KMatrix& km, const ValidateSpec& spec, std::ostream& out,
                    analysis::IncrementalRta* cache) {
  SYMCAN_OBS_SPAN("pipeline.validate");
  if (spec.millis <= 0) throw std::invalid_argument("millis must be positive");
  SimConfig sim;
  sim.duration = Duration::ms(spec.millis);
  sim.seed = spec.seed;
  sim.errors = sim_errors_for(spec.errors);
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  sim.record_percentiles = true;

  // The analysis must dominate the simulation for its bounds to be valid
  // oracles: worst-case stuffing over sampled stuffing, and an error
  // model admitting every injected fault. Assumption presets are
  // deliberately not offered here — --best-case would make a reported
  // "violation" meaningless.
  CanRtaConfig rta;
  rta.worst_case_stuffing = true;
  rta.deadline_override = DeadlinePolicy::kPeriod;
  rta.errors = matching_error_model(sim.errors);

  const BusResult bounds = cache ? cache->analyze(km, rta) : CanRta{km, rta}.analyze();
  const BoundValidation v = compare_bound_vs_observed(bounds, simulate(km, sim));
  if (spec.json)
    out << validation_to_json(v) << "\n";
  else
    out << validation_to_text(v);
  return v.ok() ? 0 : 1;
}

GaConfig ga_config_for(const KMatrix& km, const OptimizeSpec& spec) {
  if (spec.generations <= 0) throw std::invalid_argument("generations must be positive");
  if (spec.population <= 0) throw std::invalid_argument("population must be positive");
  GaConfig cfg;
  cfg.rta = spec.best_case ? best_case_assumptions() : worst_case_assumptions();
  cfg.seed = spec.seed;
  cfg.generations = spec.generations;
  cfg.population = spec.population;
  cfg.archive = std::max(2, cfg.population / 2);
  cfg.eval_fractions = {spec.target_jitter};
  cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
  cfg.parallelism = spec.jobs;
  cfg.tile = spec.tile;
  cfg.cache = spec.cache;
  return cfg;
}

OptimizeOutcome run_optimize(const KMatrix& km, const OptimizeSpec& spec) {
  const GaConfig cfg = ga_config_for(km, spec);
  GaResult res = optimize_priorities(km, cfg);
  KMatrix optimized = apply_priority_order(km, res.best.order);
  return {std::move(res), std::move(optimized)};
}

std::string optimize_summary(const GaResult& result) {
  std::string text = "GA: ";
  append_integer(text, result.evaluations);
  text += " evaluations, best misses ";
  append_fixed(text, result.best.misses, 0);
  text += ", robustness cost ";
  append_fixed(text, result.best.robustness_cost, 3);
  text += '\n';
  return text;
}

int render_optimize(const KMatrix& km, const OptimizeSpec& spec, std::ostream& out) {
  SYMCAN_OBS_SPAN("pipeline.optimize");
  const OptimizeOutcome o = run_optimize(km, spec);
  out << optimize_summary(o.result) << kmatrix_to_csv(o.optimized);
  return o.result.best.misses == 0 ? 0 : 1;
}

}  // namespace symcan::pipeline
