// The stdio transport's input bound: request lines are read with a fixed
// cap (kMaxRequestLineBytes), so a line with no newline cannot grow the
// server's memory without limit. An oversize line is answered with one
// kInvalid response naming the limit, is discarded through its newline,
// and the requests after it are served as usual.

#include "symcan/serve/server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace symcan::serve {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in{text};
  for (std::string l; std::getline(in, l);) out.push_back(l);
  return out;
}

std::vector<std::string> serve_lines(const std::string& input) {
  ServeConfig cfg;
  cfg.jobs = 1;
  ServeCore core{cfg};
  std::istringstream in{input};
  std::ostringstream out;
  EXPECT_EQ(run_stdio_serve(core, in, out), 0);
  return split_lines(out.str());
}

const std::string kHealth = "{\"id\":\"after\",\"kind\":\"health\"}";

TEST(StdioLineCap, OversizeLineAnswersInvalidAndServingContinues) {
  std::string input(kMaxRequestLineBytes + 1, 'x');
  input += "\n" + kHealth + "\n";
  const std::vector<std::string> replies = serve_lines(input);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].find("\"status\":\"invalid\""), std::string::npos) << replies[0];
  EXPECT_NE(replies[0].find("\"line\":1"), std::string::npos) << replies[0];
  EXPECT_NE(replies[0].find(std::to_string(kMaxRequestLineBytes) + "-byte limit"),
            std::string::npos)
      << replies[0];
  EXPECT_NE(replies[1].find("\"id\":\"after\""), std::string::npos) << replies[1];
  EXPECT_NE(replies[1].find("\"status\":\"ok\""), std::string::npos) << replies[1];
}

TEST(StdioLineCap, LineAtTheCapIsStillRead) {
  // A blank line of exactly the cap is read whole (and skipped as blank);
  // one byte more is oversize. Line numbers keep counting either way.
  std::string input(kMaxRequestLineBytes, ' ');
  input += "\n" + std::string(kMaxRequestLineBytes + 1, ' ') + "\n" + kHealth + "\n";
  const std::vector<std::string> replies = serve_lines(input);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].find("\"line\":2"), std::string::npos) << replies[0];
  EXPECT_NE(replies[1].find("\"status\":\"ok\""), std::string::npos) << replies[1];
}

TEST(StdioLineCap, UnterminatedOversizeTailAnswersOnce) {
  // Both lines fall in one cycle, so the invalid reply comes first (the
  // transport answers malformed lines before the handled batch).
  const std::vector<std::string> replies =
      serve_lines(kHealth + "\n" + std::string(kMaxRequestLineBytes + 100, '{'));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].find("\"status\":\"invalid\""), std::string::npos) << replies[0];
  EXPECT_NE(replies[0].find("\"line\":2"), std::string::npos) << replies[0];
  EXPECT_NE(replies[1].find("\"status\":\"ok\""), std::string::npos) << replies[1];
}

TEST(ReadRequestLine, SplitsLikeGetlineBelowTheCap) {
  // Lines straddling the internal chunk size, CRLF, empty lines and an
  // unterminated tail come back exactly as std::getline returns them.
  const std::string text = std::string(8191, 'a') + "\n" + std::string(8192, 'b') + "\n" +
                           std::string(8193, 'c') + "\r\n\n" + std::string(20000, 'd') + "\nend";
  std::istringstream in{text};
  std::string line;
  for (const std::string& want : split_lines(text)) {
    ASSERT_EQ(read_request_line(in, line, 1 << 20), LineRead::kLine);
    EXPECT_EQ(line, want);
  }
  EXPECT_EQ(read_request_line(in, line, 1 << 20), LineRead::kEnd);
}

TEST(ReadRequestLine, CapBoundaries) {
  std::istringstream in{"abcd\nabcde\nab\nabcdef"};
  std::string line;
  ASSERT_EQ(read_request_line(in, line, 4), LineRead::kLine);
  EXPECT_EQ(line, "abcd");
  EXPECT_EQ(read_request_line(in, line, 4), LineRead::kTooLong);
  EXPECT_TRUE(line.empty());
  ASSERT_EQ(read_request_line(in, line, 4), LineRead::kLine);
  EXPECT_EQ(line, "ab");
  EXPECT_EQ(read_request_line(in, line, 4), LineRead::kTooLong);
  EXPECT_EQ(read_request_line(in, line, 4), LineRead::kEnd);
}

}  // namespace
}  // namespace symcan::serve
