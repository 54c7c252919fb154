// perfbench_replay: the benchmark's in-process traced run.
//
//   perfbench_replay FILE --warmup W --measure N
//
// Replays the request lines of FILE through the public functions
// `symcan serve` runs for each line: request_from_jsonl ->
// ServeCore::handle -> response_to_jsonl. Lines [0, W) warm a fresh core;
// lines [W, W+N) are then measured, each pass on a fresh and identically
// warmed core, alternately untraced (one timer per request) and traced.
// Prints one JSON object with the totals of both modes, the per-layer
// self times and the counts the layers return.
//
// Tracing needs no change to the program. The calls one layer makes into
// another cross object files, so the link step (CMakeLists.txt) uses GNU
// ld's --wrap to route each such call through a wrapper below that opens
// a span, calls the real function and closes the span. A layer's self
// time is its span's duration minus the time its child spans cover, so
// the self times of all layers add up to the request total, up to the few
// instructions between the replay's own timers. A change that renames or
// re-types a wrapped function fails this binary's link with the symbol's
// name; the `#define SYM_` line for it is then updated.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/load.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/analysis/rta_context.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/sim/simulator.hpp"
#include "symcan/sim/validation.hpp"
#include "symcan/util/diagnostics.hpp"

namespace {

using namespace symcan;

// ---------------------------------------------------------------- ledger

enum Layer : int {
  kDecode,       // serve.decode: request_from_jsonl
  kCore,         // serve.core: ServeCore::handle self (memo, copy, telemetry)
  kIngest,       // can.ingest: kmatrix_from_csv self
  kValidate,     // can.validate: KMatrix::validate
  kSpec,         // pipeline.matrix_spec: apply_matrix_spec
  kRender,       // pipeline.render: render_* self (text/JSON formatting)
  kLoad,         // analysis.load: analyze_load
  kCache,        // analysis.cache: IncrementalRta::analyze self (lookup, insert, evict)
  kFingerprint,  // analysis.fingerprint: bus_fingerprints
  kPack,         // analysis.pack: pack_bus, build_message_context
  kSolve,        // analysis.solve: solve_columnar, solve_message
  kProb,         // analysis.prob: IncrementalRta::analyze_prob (inclusive)
  kExplain,      // analysis.explain: explain_message (inclusive)
  kSim,          // sim.validate: simulate + compare_bound_vs_observed (inclusive)
  kGa,           // opt.ga: optimize_priorities (inclusive)
  kEncode,       // serve.encode: response_to_jsonl
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "serve.decode",  "serve.core",       "can.ingest",     "can.validate",
    "pipeline.matrix_spec", "pipeline.render", "analysis.load", "analysis.cache",
    "analysis.fingerprint", "analysis.pack", "analysis.solve", "analysis.prob",
    "analysis.explain", "sim.validate", "opt.ga", "serve.encode"};

// Layers whose inner calls are not split further: their time is reported
// inclusive, and spans opened inside them are not recorded.
constexpr bool opaque(Layer l) {
  return l == kProb || l == kExplain || l == kSim || l == kGa;
}

struct Ledger {
  std::int64_t self_ns[kLayerCount] = {};
  std::int64_t fixedpoint_iters = 0;
  std::int64_t ga_evaluations = 0;
  std::int64_t ingest_bytes = 0;
};

Ledger g_ledger;
bool g_tracing = false;
int g_opaque_depth = 0;
std::thread::id g_replay_thread;

struct Frame {
  Layer layer;
  std::int64_t start_ns;
  std::int64_t child_ns;
};
std::vector<Frame> g_stack;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Span {
 public:
  explicit Span(Layer layer)
      : layer_{layer},
        active_{g_tracing && g_opaque_depth == 0 &&
                std::this_thread::get_id() == g_replay_thread} {
    if (!active_) return;
    if (opaque(layer_)) ++g_opaque_depth;
    g_stack.push_back({layer_, now_ns(), 0});
  }
  ~Span() {
    if (!active_) return;
    const Frame f = g_stack.back();
    g_stack.pop_back();
    const std::int64_t dur = now_ns() - f.start_ns;
    g_ledger.self_ns[layer_] += dur - f.child_ns;
    if (!g_stack.empty()) g_stack.back().child_ns += dur;
    if (opaque(layer_)) --g_opaque_depth;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

 private:
  Layer layer_;
  bool active_;
};

}  // namespace

// ------------------------------------------------------------- wrappers
//
// Each block declares the real function under its `__real_` link name
// and defines the wrapper under its `__wrap_` link name. Member functions
// are declared as free functions taking the object pointer first, which is
// how the Itanium C++ ABI passes `this`. CMakeLists.txt passes --wrap for
// every `#define SYM_` name.

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

namespace perfbench_wrap {

using namespace symcan;

#define SYM_VALIDATE "_ZNK6symcan7KMatrix8validateEv"
void real_validate(const KMatrix*) PERFBENCH_REAL(SYM_VALIDATE);
void wrap_validate(const KMatrix* km) PERFBENCH_WRAP(SYM_VALIDATE);
void wrap_validate(const KMatrix* km) {
  Span s{kValidate};
  real_validate(km);
}

#define SYM_FROM_CSV "_ZN6symcan16kmatrix_from_csvERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_11DiagnosticsE"
std::optional<KMatrix> real_from_csv(const std::string&, Diagnostics&) PERFBENCH_REAL(SYM_FROM_CSV);
std::optional<KMatrix> wrap_from_csv(const std::string& text, Diagnostics& d)
    PERFBENCH_WRAP(SYM_FROM_CSV);
std::optional<KMatrix> wrap_from_csv(const std::string& text, Diagnostics& d) {
  Span s{kIngest};
  if (s.active()) g_ledger.ingest_bytes += static_cast<std::int64_t>(text.size());
  return real_from_csv(text, d);
}

#define SYM_SPEC "_ZN6symcan8pipeline17apply_matrix_specERNS_7KMatrixERKNS0_10MatrixSpecE"
void real_spec(KMatrix&, const pipeline::MatrixSpec&) PERFBENCH_REAL(SYM_SPEC);
void wrap_spec(KMatrix& km, const pipeline::MatrixSpec& spec) PERFBENCH_WRAP(SYM_SPEC);
void wrap_spec(KMatrix& km, const pipeline::MatrixSpec& spec) {
  Span s{kSpec};
  real_spec(km, spec);
}

#define SYM_RENDER_ANALYZE "_ZN6symcan8pipeline14render_analyzeERKNS_7KMatrixERKNS_12CanRtaConfigERSoPNS_8analysis14IncrementalRtaE"
int real_render_analyze(const KMatrix&, const CanRtaConfig&, std::ostream&,
                        IncrementalRta*) PERFBENCH_REAL(SYM_RENDER_ANALYZE);
int wrap_render_analyze(const KMatrix& km, const CanRtaConfig& cfg, std::ostream& out,
                        IncrementalRta* cache) PERFBENCH_WRAP(SYM_RENDER_ANALYZE);
int wrap_render_analyze(const KMatrix& km, const CanRtaConfig& cfg, std::ostream& out,
                        IncrementalRta* cache) {
  Span s{kRender};
  return real_render_analyze(km, cfg, out, cache);
}

#define SYM_RENDER_PROB "_ZN6symcan8pipeline11render_probERKNS_7KMatrixERKNS_12CanRtaConfigERKNS0_8ProbSpecERSoPNS_8analysis14IncrementalRtaE"
int real_render_prob(const KMatrix&, const CanRtaConfig&, const pipeline::ProbSpec&,
                     std::ostream&, IncrementalRta*) PERFBENCH_REAL(SYM_RENDER_PROB);
int wrap_render_prob(const KMatrix& km, const CanRtaConfig& cfg, const pipeline::ProbSpec& spec,
                     std::ostream& out, IncrementalRta* cache) PERFBENCH_WRAP(SYM_RENDER_PROB);
int wrap_render_prob(const KMatrix& km, const CanRtaConfig& cfg, const pipeline::ProbSpec& spec,
                     std::ostream& out, IncrementalRta* cache) {
  Span s{kRender};
  return real_render_prob(km, cfg, spec, out, cache);
}

#define SYM_RENDER_EXPLAIN "_ZN6symcan8pipeline14render_explainERKNS_7KMatrixERKNS_12CanRtaConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEbRSo"
int real_render_explain(const KMatrix&, const CanRtaConfig&, const std::string&, bool,
                        std::ostream&) PERFBENCH_REAL(SYM_RENDER_EXPLAIN);
int wrap_render_explain(const KMatrix& km, const CanRtaConfig& cfg, const std::string& msg,
                        bool json, std::ostream& out) PERFBENCH_WRAP(SYM_RENDER_EXPLAIN);
int wrap_render_explain(const KMatrix& km, const CanRtaConfig& cfg, const std::string& msg,
                        bool json, std::ostream& out) {
  Span s{kRender};
  return real_render_explain(km, cfg, msg, json, out);
}

#define SYM_RENDER_VALIDATE "_ZN6symcan8pipeline15render_validateERKNS_7KMatrixERKNS0_12ValidateSpecERSoPNS_8analysis14IncrementalRtaE"
int real_render_validate(const KMatrix&, const pipeline::ValidateSpec&, std::ostream&,
                         IncrementalRta*) PERFBENCH_REAL(SYM_RENDER_VALIDATE);
int wrap_render_validate(const KMatrix& km, const pipeline::ValidateSpec& spec, std::ostream& out,
                         IncrementalRta* cache) PERFBENCH_WRAP(SYM_RENDER_VALIDATE);
int wrap_render_validate(const KMatrix& km, const pipeline::ValidateSpec& spec, std::ostream& out,
                         IncrementalRta* cache) {
  Span s{kRender};
  return real_render_validate(km, spec, out, cache);
}

#define SYM_RENDER_OPTIMIZE "_ZN6symcan8pipeline15render_optimizeERKNS_7KMatrixERKNS0_12OptimizeSpecERSo"
int real_render_optimize(const KMatrix&, const pipeline::OptimizeSpec&, std::ostream&)
    PERFBENCH_REAL(SYM_RENDER_OPTIMIZE);
int wrap_render_optimize(const KMatrix& km, const pipeline::OptimizeSpec& spec,
                         std::ostream& out) PERFBENCH_WRAP(SYM_RENDER_OPTIMIZE);
int wrap_render_optimize(const KMatrix& km, const pipeline::OptimizeSpec& spec,
                         std::ostream& out) {
  Span s{kRender};
  return real_render_optimize(km, spec, out);
}

#define SYM_LOAD "_ZN6symcan12analyze_loadERKNS_7KMatrixEb"
LoadReport real_load(const KMatrix&, bool) PERFBENCH_REAL(SYM_LOAD);
LoadReport wrap_load(const KMatrix& km, bool stuffing) PERFBENCH_WRAP(SYM_LOAD);
LoadReport wrap_load(const KMatrix& km, bool stuffing) {
  Span s{kLoad};
  return real_load(km, stuffing);
}

#define SYM_RTA_ANALYZE "_ZN6symcan8analysis14IncrementalRta7analyzeERKNS_7KMatrixERKNS_12CanRtaConfigE"
BusResult real_rta_analyze(IncrementalRta*, const KMatrix&, const CanRtaConfig&)
    PERFBENCH_REAL(SYM_RTA_ANALYZE);
BusResult wrap_rta_analyze(IncrementalRta* self, const KMatrix& km, const CanRtaConfig& cfg)
    PERFBENCH_WRAP(SYM_RTA_ANALYZE);
BusResult wrap_rta_analyze(IncrementalRta* self, const KMatrix& km, const CanRtaConfig& cfg) {
  Span s{kCache};
  return real_rta_analyze(self, km, cfg);
}

#define SYM_RTA_PROB "_ZN6symcan8analysis14IncrementalRta12analyze_probERKNS_7KMatrixERKNS0_13ProbRtaConfigE"
ProbBusResult real_rta_prob(IncrementalRta*, const KMatrix&, const analysis::ProbRtaConfig&)
    PERFBENCH_REAL(SYM_RTA_PROB);
ProbBusResult wrap_rta_prob(IncrementalRta* self, const KMatrix& km,
                            const analysis::ProbRtaConfig& cfg) PERFBENCH_WRAP(SYM_RTA_PROB);
ProbBusResult wrap_rta_prob(IncrementalRta* self, const KMatrix& km,
                            const analysis::ProbRtaConfig& cfg) {
  Span s{kProb};
  return real_rta_prob(self, km, cfg);
}

#define SYM_FINGERPRINTS "_ZN6symcan8analysis16bus_fingerprintsERKNS_7KMatrixERKNS_12CanRtaConfigE"
std::vector<analysis::ContextKey> real_fingerprints(const KMatrix&, const CanRtaConfig&)
    PERFBENCH_REAL(SYM_FINGERPRINTS);
std::vector<analysis::ContextKey> wrap_fingerprints(const KMatrix& km, const CanRtaConfig& cfg)
    PERFBENCH_WRAP(SYM_FINGERPRINTS);
std::vector<analysis::ContextKey> wrap_fingerprints(const KMatrix& km, const CanRtaConfig& cfg) {
  Span s{kFingerprint};
  return real_fingerprints(km, cfg);
}

#define SYM_PACK "_ZN6symcan8analysis8pack_busERKNS_7KMatrixERKNS_12CanRtaConfigERNS0_11ColumnarBusE"
void real_pack(const KMatrix&, const CanRtaConfig&, analysis::ColumnarBus&) PERFBENCH_REAL(SYM_PACK);
void wrap_pack(const KMatrix& km, const CanRtaConfig& cfg, analysis::ColumnarBus& out)
    PERFBENCH_WRAP(SYM_PACK);
void wrap_pack(const KMatrix& km, const CanRtaConfig& cfg, analysis::ColumnarBus& out) {
  Span s{kPack};
  real_pack(km, cfg, out);
}

#define SYM_BUILD_CONTEXT "_ZN6symcan8analysis21build_message_contextERKNS_7KMatrixERKNS_12CanRtaConfigEmPNS0_13ContextLabelsE"
analysis::MessageContext real_build_context(const KMatrix&, const CanRtaConfig&, std::size_t,
                                            analysis::ContextLabels*)
    PERFBENCH_REAL(SYM_BUILD_CONTEXT);
analysis::MessageContext wrap_build_context(const KMatrix& km, const CanRtaConfig& cfg,
                                            std::size_t i, analysis::ContextLabels* labels)
    PERFBENCH_WRAP(SYM_BUILD_CONTEXT);
analysis::MessageContext wrap_build_context(const KMatrix& km, const CanRtaConfig& cfg,
                                            std::size_t i, analysis::ContextLabels* labels) {
  Span s{kPack};
  return real_build_context(km, cfg, i, labels);
}

#define SYM_SOLVE_COLUMNAR "_ZN6symcan8analysis14solve_columnarERKNS0_11ColumnarBusEm"
MessageResult real_solve_columnar(const analysis::ColumnarBus&, std::size_t)
    PERFBENCH_REAL(SYM_SOLVE_COLUMNAR);
MessageResult wrap_solve_columnar(const analysis::ColumnarBus& bus, std::size_t i)
    PERFBENCH_WRAP(SYM_SOLVE_COLUMNAR);
MessageResult wrap_solve_columnar(const analysis::ColumnarBus& bus, std::size_t i) {
  Span s{kSolve};
  MessageResult r = real_solve_columnar(bus, i);
  if (s.active()) g_ledger.fixedpoint_iters += r.fixedpoint_iterations;
  return r;
}

#define SYM_SOLVE_MESSAGE "_ZN6symcan8analysis13solve_messageERKNS0_14MessageContextE"
MessageResult real_solve_message(const analysis::MessageContext&) PERFBENCH_REAL(SYM_SOLVE_MESSAGE);
MessageResult wrap_solve_message(const analysis::MessageContext& ctx)
    PERFBENCH_WRAP(SYM_SOLVE_MESSAGE);
MessageResult wrap_solve_message(const analysis::MessageContext& ctx) {
  Span s{kSolve};
  MessageResult r = real_solve_message(ctx);
  if (s.active()) g_ledger.fixedpoint_iters += r.fixedpoint_iterations;
  return r;
}

#define SYM_EXPLAIN "_ZN6symcan8analysis15explain_messageERKNS_7KMatrixERKNS_12CanRtaConfigEm"
analysis::Provenance real_explain(const KMatrix&, const CanRtaConfig&, std::size_t)
    PERFBENCH_REAL(SYM_EXPLAIN);
analysis::Provenance wrap_explain(const KMatrix& km, const CanRtaConfig& cfg, std::size_t i)
    PERFBENCH_WRAP(SYM_EXPLAIN);
analysis::Provenance wrap_explain(const KMatrix& km, const CanRtaConfig& cfg, std::size_t i) {
  Span s{kExplain};
  return real_explain(km, cfg, i);
}

#define SYM_SIMULATE "_ZN6symcan8simulateERKNS_7KMatrixERKNS_9SimConfigE"
SimResult real_simulate(const KMatrix&, const SimConfig&) PERFBENCH_REAL(SYM_SIMULATE);
SimResult wrap_simulate(const KMatrix& km, const SimConfig& cfg) PERFBENCH_WRAP(SYM_SIMULATE);
SimResult wrap_simulate(const KMatrix& km, const SimConfig& cfg) {
  Span s{kSim};
  return real_simulate(km, cfg);
}

#define SYM_COMPARE "_ZN6symcan25compare_bound_vs_observedERKNS_9BusResultERKNS_9SimResultE"
BoundValidation real_compare(const BusResult&, const SimResult&) PERFBENCH_REAL(SYM_COMPARE);
BoundValidation wrap_compare(const BusResult& b, const SimResult& r) PERFBENCH_WRAP(SYM_COMPARE);
BoundValidation wrap_compare(const BusResult& b, const SimResult& r) {
  Span s{kSim};
  return real_compare(b, r);
}

#define SYM_GA "_ZN6symcan19optimize_prioritiesERKNS_7KMatrixERKNS_8GaConfigE"
GaResult real_ga(const KMatrix&, const GaConfig&) PERFBENCH_REAL(SYM_GA);
GaResult wrap_ga(const KMatrix& km, const GaConfig& cfg) PERFBENCH_WRAP(SYM_GA);
GaResult wrap_ga(const KMatrix& km, const GaConfig& cfg) {
  Span s{kGa};
  GaResult r = real_ga(km, cfg);
  if (s.active()) g_ledger.ga_evaluations += r.evaluations;
  return r;
}

}  // namespace perfbench_wrap

namespace {

// ---------------------------------------------------------------- helpers

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "perfbench_replay: " << msg << "\n";
  std::exit(2);
}

std::int64_t int_arg(const std::vector<std::string>& args, const std::string& name) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i)
    if (args[i] == name) return std::stoll(args[i + 1]);
  die("missing " + name);
}

/// FNV-1a over the response lines of a pass: traced and untraced passes
/// must produce the same bytes.
std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001B3ULL;
  return h;
}

constexpr int kRounds = 3;  ///< Untraced and traced passes each.

serve::ServeConfig replay_config() {
  // The serve flags the benchmark passes (session.py SERVE_FLAGS); handle()
  // runs on the calling thread, so --jobs and --batch play no part.
  serve::ServeConfig cfg;
  cfg.cache.capacity = 65536;
  cfg.cache.shards = 8;
  cfg.matrix_cache_capacity = 64;
  cfg.jobs = 1;
  return cfg;
}

struct Pass {
  std::int64_t total_ns = 0;
  /// Per measured request: its fastest time over the passes added up.
  std::vector<std::int64_t> fastest_ns;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::int64_t output_bytes = 0;
  std::int64_t failed = 0;  ///< Responses that are not ok / failed(exit 1).
  analysis::RtaCacheStats rta;
  analysis::RtaCacheStats prob;
};

/// Replays lines [0, warmup) untimed on a fresh core, then times lines
/// [warmup, warmup + measure). Traced passes add their spans to g_ledger.
Pass run_pass(const std::vector<std::string>& lines, std::size_t warmup, std::size_t measure,
              bool traced) {
  serve::ServeCore core{replay_config()};
  const auto one = [&](std::size_t i, Pass* p) {
    const std::int64_t t0 = now_ns();
    Diagnostics diags{DiagnosticPolicy::kLenient, "serve request"};
    std::optional<serve::ServeRequest> req;
    {
      Span s{kDecode};
      req = serve::request_from_jsonl(lines[i], i + 1, diags);
    }
    serve::ServeResponse resp;
    {
      Span s{kCore};
      resp = req ? core.handle(*req) : serve::invalid_response("", diags);
    }
    std::string out;
    {
      Span s{kEncode};
      out = serve::response_to_jsonl(resp);
    }
    if (!p) return;
    const std::int64_t dur = now_ns() - t0;
    p->total_ns += dur;
    p->fastest_ns.push_back(dur);
    p->digest = fnv(p->digest, out);
    p->output_bytes += static_cast<std::int64_t>(resp.output.size());
    const bool answer = resp.status == serve::ResponseStatus::kOk ||
                        (resp.status == serve::ResponseStatus::kFailed && resp.exit_code == 1);
    if (!answer) ++p->failed;
  };
  for (std::size_t i = 0; i < warmup; ++i) one(i, nullptr);
  Pass pass;
  const analysis::RtaCacheStats rta0 = core.rta_cache().stats();
  const analysis::RtaCacheStats prob0 = core.rta_cache().prob_stats();
  g_tracing = traced;
  for (std::size_t i = warmup; i < warmup + measure; ++i) one(i, &pass);
  g_tracing = false;
  const analysis::RtaCacheStats rta1 = core.rta_cache().stats();
  const analysis::RtaCacheStats prob1 = core.rta_cache().prob_stats();
  pass.rta = {rta1.hits - rta0.hits, rta1.misses - rta0.misses, rta1.evictions - rta0.evictions};
  pass.prob = {prob1.hits - prob0.hits, prob1.misses - prob0.misses,
               prob1.evictions - prob0.evictions};
  return pass;
}

Pass& operator+=(Pass& a, const Pass& b) {
  a.total_ns += b.total_ns;
  if (a.fastest_ns.empty()) a.fastest_ns = b.fastest_ns;
  for (std::size_t i = 0; i < a.fastest_ns.size(); ++i)
    a.fastest_ns[i] = std::min(a.fastest_ns[i], b.fastest_ns[i]);
  a.digest = fnv(a.digest, std::to_string(b.digest));
  a.output_bytes += b.output_bytes;
  a.failed += b.failed;
  a.rta.hits += b.rta.hits;
  a.rta.misses += b.rta.misses;
  a.rta.evictions += b.rta.evictions;
  a.prob.hits += b.prob.hits;
  a.prob.misses += b.prob.misses;
  return a;
}

int replay(const std::vector<std::string>& args) {
  if (args.empty()) die("usage: perfbench_replay FILE --warmup W --measure N");
  std::ifstream in{args[0]};
  if (!in) die("cannot read " + args[0]);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto warmup = static_cast<std::size_t>(int_arg(args, "--warmup"));
  const auto measure = static_cast<std::size_t>(int_arg(args, "--measure"));
  if (measure == 0 || warmup + measure > lines.size()) die("not enough request lines");

  g_replay_thread = std::this_thread::get_id();
  g_stack.reserve(64);
  // A first, discarded pass warms the allocator and the code; then the
  // two modes take turns so that drift affects both alike. The overhead
  // compares each request's fastest time in either mode, which outside
  // load can only lengthen.
  run_pass(lines, warmup, measure, false);
  Pass untraced, traced;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced_first = round % 2 == 1;  // neither mode always runs second
    for (const bool t : {traced_first, !traced_first})
      (t ? traced : untraced) += run_pass(lines, warmup, measure, t);
  }
  const Ledger& L = g_ledger;

  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  std::ostringstream o;
  o.precision(17);
  const auto sum = [](const std::vector<std::int64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::int64_t{0});
  };
  o << "{\"requests\":" << kRounds * measure;
  o << ",\"passes\":" << kRounds;
  o << ",\"untraced_fastest_us\":" << us(sum(untraced.fastest_ns));
  o << ",\"traced_fastest_us\":" << us(sum(traced.fastest_ns));
  o << ",\"untraced_total_us\":" << us(untraced.total_ns);
  o << ",\"traced_total_us\":" << us(traced.total_ns);
  o << ",\"digests_equal\":" << (untraced.digest == traced.digest ? "true" : "false");
  o << ",\"failed\":" << traced.failed + untraced.failed;
  o << ",\"output_bytes\":" << traced.output_bytes;
  o << ",\"ingest_bytes\":" << L.ingest_bytes;
  o << ",\"fixedpoint_iters\":" << L.fixedpoint_iters;
  o << ",\"ga_evaluations\":" << L.ga_evaluations;
  o << ",\"rta_cache\":{\"hits\":" << traced.rta.hits << ",\"misses\":" << traced.rta.misses
    << ",\"evictions\":" << traced.rta.evictions << "}";
  o << ",\"prob_cache\":{\"hits\":" << traced.prob.hits << ",\"misses\":" << traced.prob.misses
    << "}";
  o << ",\"layers\":{";
  for (int l = 0; l < kLayerCount; ++l) {
    if (l) o << ",";
    o << "\"" << kLayerNames[l] << "\":" << us(L.self_ns[l]);
  }
  o << "}}\n";
  std::cout << o.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return replay(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    die(e.what());
  }
}
