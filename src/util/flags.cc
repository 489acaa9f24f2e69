#include "util/flags.h"

#include <charconv>
#include <string>
#include <system_error>

namespace sthsl {

Result<int64_t> ParseIntFlag(std::string_view name, std::string_view text,
                             int64_t min, int64_t max) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be an integer, got '" +
                                   std::string(text) + "'");
  }
  if (error != std::errc() || value < min || value > max) {
    return Status::InvalidArgument(
        std::string(name) + " must be in [" + std::to_string(min) + ", " +
        std::to_string(max) + "], got " + std::string(text));
  }
  return value;
}

}  // namespace sthsl
