// `symcan serve --stdio` through the real binary and real pipes. The
// in-process transport tests use stringstreams, so they cannot see what
// only the process has: how main() sets up the standard streams, whether
// each cycle's replies are flushed while the client waits, and whether
// the last replies are written out before the process exits.
//
// One input is piped into the binary at --jobs 1/4 x --batch 1/32. Its
// replies must equal, byte for byte, what an in-process ServeCore answers
// for the same lines (health and telemetry compared without their timing
// payloads). The input holds the committed request fixture, lines longer
// than the reader's 8 KiB chunk and the stream buffer, one malformed and
// one oversize line, and a last line with no trailing newline. The two
// invalid lines come first: a cycle answers invalid lines before its
// handled batch, so only then is the reply order the same at every
// --batch.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/serve/server.hpp"
#include "symcan/workload/powertrain.hpp"

extern char** environ;

namespace symcan::serve {
namespace {

/// One input line; an oversize one is answered without being parsed.
struct Line {
  std::string text;
  bool oversize = false;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in{text};
  for (std::string l; std::getline(in, l);) out.push_back(l);
  return out;
}

/// The reply without the health/telemetry payload, which holds uptimes
/// and rates. The payload is the last key of a reply object, so the
/// first of the two keys is the top-level one (the telemetry payload
/// nests a health object); the escaped `output` string cannot contain
/// either key unescaped.
std::string without_timing(const std::string& reply) {
  const std::size_t at = std::min(reply.find(",\"health\":"), reply.find(",\"telemetry\":"));
  return at == std::string::npos ? reply : reply.substr(0, at) + "}";
}

/// A running `symcan serve --stdio` with pipes on stdin and stdout;
/// stderr goes to a file.
class Server {
 public:
  Server(const std::vector<std::string>& flags, const std::string& err_path) {
    std::vector<std::string> args = {SYMCAN_BIN, "serve", "--stdio"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int in[2], out[2];
    if (::pipe(in) != 0 || ::pipe(out) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    for (const int fd : {in[0], in[1], out[0], out[1]})
      posix_spawn_file_actions_addclose(&actions, fd);
    const int rc = ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
    if (rc != 0) throw std::runtime_error(std::string("cannot start ") + SYMCAN_BIN);
  }

  ~Server() {
    close_input();
    if (from_child_ >= 0) ::close(from_child_);
    if (pid_ > 0) wait();
  }

  /// Write all of `bytes` in odd-sized pieces, so reads see lines split
  /// at arbitrary places.
  void write(const std::string& bytes) const {
    constexpr std::size_t kPiece = 4093;
    for (std::size_t at = 0; at < bytes.size();) {
      const std::size_t n = std::min(kPiece, bytes.size() - at);
      const ssize_t w = ::write(to_child_, bytes.data() + at, n);
      if (w <= 0) throw std::runtime_error("write to the server failed");
      at += static_cast<std::size_t>(w);
    }
  }

  void close_input() {
    if (to_child_ >= 0) ::close(to_child_);
    to_child_ = -1;
  }

  /// The next reply line, or nothing if none arrives within the timeout.
  std::optional<std::string> read_line(int timeout_ms) {
    for (;;) {
      const std::size_t nl = buffered_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered_.substr(0, nl);
        buffered_.erase(0, nl + 1);
        return line;
      }
      pollfd p{from_child_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0 || !fill()) return std::nullopt;
    }
  }

  /// Everything the server writes until it closes stdout.
  std::string read_all() {
    while (fill()) {
    }
    return std::exchange(buffered_, {});
  }

  /// The exit status once the server has exited.
  int wait() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = ::read(from_child_, chunk, sizeof chunk);
    if (n <= 0) return false;
    buffered_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffered_;
};

class StdioBinaryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { std::signal(SIGPIPE, SIG_IGN); }

  void SetUp() override {
    err_path_ = ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_stdio_binary.err";
  }
  void TearDown() override { std::remove(err_path_.c_str()); }

  static std::vector<Line> input_lines() {
    std::vector<Line> lines;
    lines.push_back({"{\"id\":\"broken\",\"kind\":", false});
    lines.push_back({std::string(kMaxRequestLineBytes + 1, 'x'), true});

    std::ifstream fixture{SYMCAN_SERVE_REQUESTS};
    for (std::string l; std::getline(fixture, l);) lines.push_back({l, false});

    // Inline matrices past the 8 KiB read chunk and the 8 KiB stream
    // buffer (about 64 bytes per message).
    for (const int messages : {150, 200}) {
      PowertrainConfig cfg;
      cfg.message_count = messages;
      cfg.ecu_count = 8;
      cfg.target_utilization = 0.5;
      ServeRequest req;
      req.id = "long-" + std::to_string(messages);
      req.preset = pipeline::AssumptionPreset::kWorstCase;
      req.jitter = 0.1;
      req.matrix_csv = kmatrix_to_csv(generate_powertrain(cfg));
      lines.push_back({request_to_jsonl(req), false});
    }

    PowertrainConfig tail_cfg = PowertrainConfig::case_study();
    ServeRequest tail;
    tail.id = "unterminated";
    tail.kind = RequestKind::kExplain;
    const KMatrix tail_km = generate_powertrain(tail_cfg);
    tail.matrix_csv = kmatrix_to_csv(tail_km);
    tail.message = tail_km.messages().back().name;
    tail.json = true;
    lines.push_back({request_to_jsonl(tail), false});
    return lines;
  }

  static std::string joined(const std::vector<Line>& lines) {
    std::string text;
    for (const Line& l : lines) text += l.text + "\n";
    text.pop_back();  // the last line has no newline
    return text;
  }

  /// What an in-process core answers, line by line, in input order.
  static std::vector<std::string> expected_replies(const std::vector<Line>& lines) {
    ServeCore core;
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::size_t no = i + 1;
      Diagnostics diags{core.config().policy, "serve request"};
      if (lines[i].oversize) {
        diags.error(no, "request line longer than the " + std::to_string(kMaxRequestLineBytes) +
                            "-byte limit; discarded through its newline");
        replies.push_back(response_to_jsonl(invalid_response("", diags)));
        continue;
      }
      const auto req = request_from_jsonl(lines[i].text, no, diags);
      replies.push_back(response_to_jsonl(req ? core.handle(*req) : invalid_response("", diags)));
    }
    for (std::string& r : replies) r = without_timing(r);
    return replies;
  }

  std::string slurp_err() const {
    std::ifstream f{err_path_};
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  std::string err_path_;
};

TEST_F(StdioBinaryTest, RepliesMatchInProcessCoreAtEveryWidthAndBatch) {
  const std::vector<Line> lines = input_lines();
  const std::string input = joined(lines);
  const std::vector<std::string> expected = expected_replies(lines);
  ASSERT_EQ(expected.size(), lines.size());

  for (const char* jobs : {"1", "4"}) {
    for (const char* batch : {"1", "32"}) {
      SCOPED_TRACE(std::string("--jobs ") + jobs + " --batch " + batch);
      Server server{{"--jobs", jobs, "--batch", batch}, err_path_};
      std::thread writer{[&] {
        try {
          server.write(input);
        } catch (const std::exception&) {
          // The reader below reports the replies that did not come.
        }
        server.close_input();
      }};
      const std::string out = server.read_all();
      writer.join();
      const int status = server.wait();
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0);
      EXPECT_EQ(slurp_err(), "");

      // Everything was written before the process exited: one reply per
      // line, the last of them for the unterminated line.
      ASSERT_FALSE(out.empty());
      EXPECT_EQ(out.back(), '\n');
      std::vector<std::string> got = split_lines(out);
      ASSERT_EQ(got.size(), expected.size());
      for (std::string& r : got) r = without_timing(r);
      for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]) << "reply " << i;
    }
  }
}

TEST_F(StdioBinaryTest, EachReplyArrivesWhileTheClientWaits) {
  // A client that sends one request and waits for its reply before the
  // next: every cycle must be flushed, not left in the stream buffer
  // until exit. The input stays open throughout.
  const std::vector<Line> lines = input_lines();
  const std::vector<std::string> expected = expected_replies(lines);
  Server server{{"--batch", "1"}, err_path_};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    server.write(lines[i].text + "\n");
    const std::optional<std::string> reply = server.read_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to line " << i + 1 << " within 30 s";
    EXPECT_EQ(without_timing(*reply), expected[i]) << "reply " << i;
  }
  server.close_input();
  EXPECT_EQ(server.read_all(), "");
  const int status = server.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(slurp_err(), "");
}

}  // namespace
}  // namespace symcan::serve
