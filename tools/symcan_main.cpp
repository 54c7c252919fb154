// The symcan command-line tool. All logic lives in symcan/cli (library)
// so the commands are unit-tested; this translation unit only adapts
// argv and the standard streams.

#include <iostream>
#include <string>
#include <vector>

#include "symcan/cli/commands.hpp"

int main(int argc, char** argv) {
  // Unsynchronized standard streams read and write through their own
  // buffers. Synchronized ones go through C stdio a character at a time,
  // taking the FILE lock per character once any thread exists. Reading
  // one ~5 KB `serve --stdio` request line from a pipe took 83-89 us
  // that way, 325-351 us once a thread existed, and 4-5 us
  // unsynchronized (4-CPU Xeon host). Nothing in symcan uses C stdio on
  // stdin or stdout, and only the main thread touches std::cin, cout and
  // cerr; keep it so, because unsynchronized standard streams are not
  // safe for concurrent use.
  std::ios_base::sync_with_stdio(false);
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return symcan::cli::run_cli(args, std::cout, std::cerr);
}
