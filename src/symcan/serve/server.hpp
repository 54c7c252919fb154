#pragma once

// The JSONL-over-stdio transport for `symcan serve --stdio`.
//
// One request object per input line, one response object per output
// line. The loop is deliberately deterministic so CI can replay a
// committed request file and diff the bytes:
//
//   cycle:  read up to batch_max lines (each at most
//           kMaxRequestLineBytes; a longer one answers kInvalid)
//           -> parse; malformed lines answer immediately (kInvalid), in
//              arrival order, without occupying a ring slot
//           -> submit the rest to the ring; overflow casualties answer
//              immediately (kRejected)
//           -> one Captain pressure sample
//           -> pop a batch, handle it via the executor, emit responses
//              in request order
//
// Responses within a cycle are therefore in arrival order (invalid and
// rejected first, then the handled batch), and the whole transcript is
// a pure function of the input lines and the ServeConfig — at any
// --jobs width, by the handle_batch determinism contract.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "symcan/serve/core.hpp"

namespace symcan::serve {

/// Longest request line the stdio transport accepts, newline excluded.
/// The largest real requests (a 200-message matrix inline) are about
/// 10 KB; a longer line is answered with one kInvalid response naming
/// this limit and discarded up to its newline, and serving continues.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

enum class LineRead : unsigned char {
  kLine,     ///< `line` holds the next line (newline removed).
  kTooLong,  ///< the line exceeded the cap; it was consumed through its newline.
  kEnd,      ///< end of input, nothing read.
};

/// std::getline with a cap: reads the next '\n'-terminated line (or the
/// unterminated last one) into `line`, never holding more than
/// max_bytes + 1 bytes of it. A longer line is skipped through its
/// newline and reported as kTooLong, leaving `line` empty.
LineRead read_request_line(std::istream& in, std::string& line, std::size_t max_bytes);

/// Run the serve loop until EOF on `in`. Returns the process exit code
/// (0: served until EOF; the per-request exit codes ride inside the
/// responses).
int run_stdio_serve(ServeCore& core, std::istream& in, std::ostream& out);

}  // namespace symcan::serve
