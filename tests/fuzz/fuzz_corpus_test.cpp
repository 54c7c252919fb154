// Deterministic fuzzing of the ingest layer over the committed corpus.
//
// Every corpus file is fed to its shared entry point verbatim, then a
// fixed range of seeded structure-aware mutations of it is fed as well —
// so the suite explores hostile neighborhoods of both well-formed and
// already-malformed inputs, and any failure replays from (file, seed)
// with no stored artifacts. The same entry points back the libFuzzer
// targets built under -DSYMCAN_FUZZ=ON.
//
// Labelled `fuzz` in ctest so CI can run exactly this suite under
// ASan/UBSan as the fuzz-smoke gate.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "fuzz_entries.hpp"
#include "fuzz_mutators.hpp"
#include "symcan/cli/commands.hpp"
#include "symcan/util/csv.hpp"

namespace symcan::fuzz {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMutationsPerSeed = 60;

std::vector<fs::path> corpus_files(const char* subdir) {
  const fs::path dir = fs::path{SYMCAN_FUZZ_CORPUS_DIR} / subdir;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator{dir})
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

bool is_malformed_fixture(const fs::path& p) {
  return p.filename().string().rfind("bad_", 0) == 0;
}

TEST(FuzzCorpus, DbcCorpusVerbatim) {
  const auto files = corpus_files("dbc");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_dbc_input(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, CsvCorpusVerbatim) {
  const auto files = corpus_files("csv");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_kmatrix_csv_input(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, ColumnarCorpusVerbatim) {
  const auto files = corpus_files("columnar");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_columnar_pack(read_file(f.string()))) << f;
}

// The shared CSV corpus is also valid columnar input — every accepted
// matrix anywhere in the corpus must pack and solve bit-identically.
TEST(FuzzCorpus, ColumnarHoldsOnCsvCorpus) {
  for (const auto& f : corpus_files("csv"))
    ASSERT_NO_THROW(check_columnar_pack(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, ProbCorpusVerbatim) {
  const auto files = corpus_files("prob");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_prob_rta(read_file(f.string()))) << f;
}

// The shared CSV corpus is also valid probabilistic input — the
// degenerate gate and monotone tails must hold on every accepted matrix
// anywhere in the corpus.
TEST(FuzzCorpus, ProbHoldsOnCsvCorpus) {
  for (const auto& f : corpus_files("csv"))
    ASSERT_NO_THROW(check_prob_rta(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, ArgvCorpusVerbatim) {
  const auto files = corpus_files("argv");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_cli_argv_input(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, ServeCorpusVerbatim) {
  const auto files = corpus_files("serve");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_serve_request_input(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, ServeLineReaderOnCorpusAndMutations) {
  for (const auto& f : corpus_files("serve")) {
    const std::string seed_text = read_file(f.string());
    ASSERT_NO_THROW(check_serve_line_reader(seed_text)) << f;
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_serve_line_reader(mutate_serve_jsonl(seed_text, seed)))
          << f << " seed " << seed;
  }
}

TEST(FuzzCorpus, TraceCorpusVerbatim) {
  const auto files = corpus_files("trace");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files)
    ASSERT_NO_THROW(check_trace_jsonl_input(read_file(f.string()))) << f;
}

TEST(FuzzCorpus, DbcMutationStorm) {
  for (const auto& f : corpus_files("dbc")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_dbc_input(mutate_dbc(seed_text, seed)))
          << f << " seed " << seed << "\n--- mutated input ---\n"
          << mutate_dbc(seed_text, seed);
  }
}

TEST(FuzzCorpus, CsvMutationStorm) {
  for (const auto& f : corpus_files("csv")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_kmatrix_csv_input(mutate_csv(seed_text, seed)))
          << f << " seed " << seed << "\n--- mutated input ---\n"
          << mutate_csv(seed_text, seed);
  }
}

TEST(FuzzCorpus, ColumnarMutationStorm) {
  for (const auto& f : corpus_files("columnar")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_columnar_pack(mutate_csv(seed_text, seed)))
          << f << " seed " << seed << "\n--- mutated input ---\n"
          << mutate_csv(seed_text, seed);
  }
}

TEST(FuzzCorpus, ProbMutationStorm) {
  for (const auto& f : corpus_files("prob")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_prob_rta(mutate_csv(seed_text, seed)))
          << f << " seed " << seed << "\n--- mutated input ---\n"
          << mutate_csv(seed_text, seed);
  }
}

TEST(FuzzCorpus, ArgvMutationStorm) {
  for (const auto& f : corpus_files("argv")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_cli_argv_input(mutate_argv(seed_text, seed)))
          << f << " seed " << seed << ": " << mutate_argv(seed_text, seed);
  }
}

TEST(FuzzCorpus, TraceMutationStorm) {
  for (const auto& f : corpus_files("trace")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_trace_jsonl_input(mutate_trace_jsonl(seed_text, seed)))
          << f << " seed " << seed << "\n--- mutated input ---\n"
          << mutate_trace_jsonl(seed_text, seed);
  }
}

TEST(FuzzCorpus, ServeMutationStorm) {
  for (const auto& f : corpus_files("serve")) {
    const std::string seed_text = read_file(f.string());
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed)
      ASSERT_NO_THROW(check_serve_request_input(mutate_serve_jsonl(seed_text, seed)))
          << f << " seed " << seed << "\n--- mutated input ---\n"
          << mutate_serve_jsonl(seed_text, seed);
  }
}

// The service's trust boundary: any corpus stream fed through `serve
// --stdio` leaves the service alive (exit 0), and the malformed fixture
// yields structured invalid responses with line numbers instead of a
// dropped connection.
TEST(FuzzCorpus, ServeStdioSurvivesEveryCorpusStream) {
  std::size_t malformed_checked = 0;
  for (const auto& f : corpus_files("serve")) {
    std::istringstream in{read_file(f.string())};
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::run_cli({"serve", "--stdio"}, in, out, err), 0) << f;
    if (is_malformed_fixture(f)) {
      EXPECT_NE(out.str().find("\"status\":\"invalid\""), std::string::npos) << f;
      EXPECT_NE(out.str().find("\"line\":"), std::string::npos) << f;
      ++malformed_checked;
    }
  }
  EXPECT_GE(malformed_checked, 1u);
}

// Every malformed fixture, loaded through the real CLI, must exit 2 with
// at least one line-numbered diagnostic on stderr — the ingest contract
// the README documents.
TEST(FuzzCorpus, MalformedFixturesExitTwoWithLineDiagnostics) {
  std::size_t checked = 0;
  for (const char* subdir : {"dbc", "csv"}) {
    for (const auto& f : corpus_files(subdir)) {
      if (!is_malformed_fixture(f)) continue;
      std::ostringstream out;
      std::ostringstream err;
      std::vector<std::string> argv = {"analyze", f.string()};
      if (std::string{subdir} == "dbc") argv.push_back("--dbc");
      EXPECT_EQ(cli::run_cli(argv, out, err), 2) << f;
      EXPECT_NE(err.str().find(" line "), std::string::npos)
          << f << ": stderr lacks a line-numbered diagnostic:\n"
          << err.str();
      EXPECT_NE(err.str().find("error"), std::string::npos) << f;
      ++checked;
    }
  }
  EXPECT_GE(checked, 4u);
}

// Same contract for the stream layer's trust boundary: a malformed
// recorded trace fed to `symcan monitor --from-trace` must exit 2 with
// line-numbered diagnostics, and well-formed fixtures must not.
TEST(FuzzCorpus, MalformedTraceFixturesExitTwoThroughMonitor) {
  std::size_t checked = 0;
  for (const auto& f : corpus_files("trace")) {
    std::ostringstream out;
    std::ostringstream err;
    const int rc =
        cli::run_cli({"monitor", SYMCAN_CASE_STUDY_CSV, "--from-trace", f.string()}, out, err);
    if (is_malformed_fixture(f)) {
      EXPECT_EQ(rc, 2) << f;
      EXPECT_NE(err.str().find(" line "), std::string::npos)
          << f << ": stderr lacks a line-numbered diagnostic:\n"
          << err.str();
      EXPECT_NE(err.str().find("error"), std::string::npos) << f;
      ++checked;
    } else {
      EXPECT_TRUE(rc == 0 || rc == 1) << f << " rc=" << rc << "\n" << err.str();
    }
  }
  EXPECT_GE(checked, 1u);
}

// Well-formed fixtures must load cleanly through the CLI (exit 0 or the
// schedulability verdict 1, never the malformed-input 2).
TEST(FuzzCorpus, WellFormedFixturesDoNotExitTwo) {
  for (const char* subdir : {"dbc", "csv"}) {
    for (const auto& f : corpus_files(subdir)) {
      if (f.filename().string().rfind("ok_", 0) != 0) continue;
      std::ostringstream out;
      std::ostringstream err;
      std::vector<std::string> argv = {"analyze", f.string()};
      if (std::string{subdir} == "dbc") argv.push_back("--dbc");
      const int rc = cli::run_cli(argv, out, err);
      EXPECT_TRUE(rc == 0 || rc == 1) << f << " rc=" << rc << "\n" << err.str();
    }
  }
}

// The strict policy must reject the zero-cycle-time fixture that lenient
// accepts with a warning — the policy knob's observable contract.
TEST(FuzzCorpus, StrictEscalatesWarningFixture) {
  const fs::path f = fs::path{SYMCAN_FUZZ_CORPUS_DIR} / "dbc" / "warn_zero_cycle.dbc";
  std::ostringstream out1, err1, out2, err2;
  const int lenient = cli::run_cli({"analyze", f.string(), "--dbc"}, out1, err1);
  const int strict = cli::run_cli({"analyze", f.string(), "--dbc", "--strict"}, out2, err2);
  EXPECT_TRUE(lenient == 0 || lenient == 1) << err1.str();
  EXPECT_EQ(strict, 2) << err2.str();
  // Strict escalates at record time, so the entry renders as an error —
  // the diagnostic text still names the recoverable condition.
  EXPECT_NE(err2.str().find("cycle time"), std::string::npos) << err2.str();
  EXPECT_NE(err2.str().find("error"), std::string::npos) << err2.str();
}

TEST(FuzzCorpus, SanitizerNeutralisesHostileArgvTokens) {
  const auto argv = sanitize_argv("analyze /dev/zero --out ../evil --millis 999999999");
  for (const auto& t : argv) {
    EXPECT_NE(t.front(), '/') << t;
    EXPECT_EQ(t.find(".."), std::string::npos) << t;
    EXPECT_NE(t, "--out");
  }
  // The numeric clamp keeps any duration/count token to at most 3 digits.
  for (const auto& t : argv)
    if (t.find_first_not_of("0123456789") == std::string::npos) EXPECT_LE(t.size(), 3u);
}

}  // namespace
}  // namespace symcan::fuzz
