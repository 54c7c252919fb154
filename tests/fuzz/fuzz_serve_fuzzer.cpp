// libFuzzer target for the serve request wire grammar (build with
// -DSYMCAN_FUZZ=ON). Shares its entry point with the deterministic
// corpus test, so any finding replays there by adding the input to
// tests/fuzz/corpus/serve/.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fuzz_entries.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text{reinterpret_cast<const char*>(data), size};
  symcan::fuzz::check_serve_request_input(text);
  symcan::fuzz::check_serve_line_reader(text);
  return 0;
}
