#include "symcan/serve/server.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "symcan/obs/export.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/obs/prometheus.hpp"

namespace symcan::serve {

namespace {

bool blank(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

/// One input line of a cycle; `too_long` lines carry no text.
struct InputLine {
  std::size_t no = 0;
  std::string text;
  bool too_long = false;
};

}  // namespace

LineRead read_request_line(std::istream& in, std::string& line, std::size_t max_bytes) {
  // Chunked istream::getline: each call stores at most `room` bytes, so
  // the line never grows past max_bytes + 1 before it is judged.
  constexpr std::size_t kChunk = std::size_t{8} << 10;
  line.clear();
  for (;;) {
    const std::size_t have = line.size();
    const std::size_t room = std::min(kChunk, max_bytes + 1 - have);
    line.resize(have + room + 1);  // + the terminator getline writes
    in.getline(line.data() + have, static_cast<std::streamsize>(room + 1));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (!in.fail()) {
      // Stopped at the newline (extracted and counted by gcount) or at
      // end of input after at least one byte.
      line.resize(have + (in.eof() ? got : got - 1));
      if (line.size() <= max_bytes) return LineRead::kLine;
      line.clear();
      return LineRead::kTooLong;
    }
    if (in.bad() || in.eof()) {
      // End of input with nothing extracted by this call.
      line.resize(have);
      return have > 0 ? LineRead::kLine : LineRead::kEnd;
    }
    // The chunk filled before a newline appeared.
    in.clear();
    line.resize(have + got);
    if (line.size() > max_bytes) {
      line.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      return LineRead::kTooLong;
    }
  }
}

int run_stdio_serve(ServeCore& core, std::istream& in, std::ostream& out) {
  std::string line;
  std::size_t line_no = 0;
  bool eof = false;
  while (!eof) {
    // Read one cycle's worth of lines.
    std::vector<InputLine> lines;
    while (lines.size() < core.config().batch_max) {
      const LineRead r = read_request_line(in, line, kMaxRequestLineBytes);
      if (r == LineRead::kEnd) {
        eof = true;
        break;
      }
      ++line_no;
      if (r == LineRead::kTooLong) {
        lines.push_back({line_no, {}, true});
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!blank(line)) lines.push_back({line_no, line, false});
    }
    if (lines.empty() && eof) break;

    // A reply and its newline go out in one write: written apart, a reply
    // longer than the stream buffer reaches the client as two writes. The
    // cycle is not gathered into one block, which would hold every reply
    // of a batch at once (+0.8 MB peak RSS at --batch 32 in perfbench's
    // bulk_variants workload).
    const auto reply = [&out](const ServeResponse& resp) {
      std::string jsonl = response_to_jsonl(resp);
      jsonl += '\n';
      out.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
    };

    // Parse; answer malformed lines immediately, enqueue the rest.
    for (auto& [no, text, too_long] : lines) {
      Diagnostics diags{core.config().policy, "serve request"};
      if (too_long) {
        diags.error(no, "request line longer than the " + std::to_string(kMaxRequestLineBytes) +
                            "-byte limit; discarded through its newline");
        reply(invalid_response("", diags));
        continue;
      }
      auto req = request_from_jsonl(text, no, diags);
      if (!req) {
        reply(invalid_response("", diags));
        continue;
      }
      // submit() consumes the request, so remember what a rejection
      // response needs before handing it over.
      const std::string req_id = req->id;
      const RequestKind req_kind = req->kind;
      std::optional<QueuedRequest> victim;
      const PushOutcome outcome = core.submit(std::move(*req), &victim);
      const auto reject = [&](const std::string& id, RequestKind kind, const char* why) {
        ServeResponse resp;
        resp.id = id;
        resp.kind = kind;
        resp.status = ResponseStatus::kRejected;
        resp.exit_code = 2;
        Diagnostic d;
        d.source = "serve";
        d.line = 0;
        d.message = why;
        resp.diagnostics = {d};
        reply(resp);
      };
      if (outcome == PushOutcome::kRejected)
        reject(req_id, req_kind, "request ring full (overflow policy: reject)");
      else if (outcome == PushOutcome::kTimedOut)
        reject(req_id, req_kind, "request ring full past the block deadline");
      else if (victim)
        reject(victim->req.id, victim->req.kind,
               "evicted by a newer request (overflow policy: drop-oldest)");
    }

    // One pressure sample per cycle, then drain and answer the batch.
    core.captain().observe(core.ring().pressure());
    const std::vector<QueuedRequest> batch = core.take_batch();
    for (const ServeResponse& resp : core.handle_batch(batch)) reply(resp);
    out.flush();

    // Periodic Prometheus exposition: rewrite the scrape file once per
    // cycle so an external collector always reads a fresh snapshot.
    if (!core.config().metrics_prom_path.empty()) {
      try {
        obs::write_file(core.config().metrics_prom_path,
                        obs::metrics_to_prometheus(obs::metrics()));
      } catch (const std::exception&) {
        // Scrape-file trouble must not take the service down.
      }
    }
  }
  // Shutdown is one of the flight recorder's dump triggers: the last N
  // requests are exactly what a post-mortem wants.
  core.dump_flight("shutdown");
  return 0;
}

}  // namespace symcan::serve
