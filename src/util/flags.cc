#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

Result<double> ParseDoubleFlag(std::string_view name, std::string_view text,
                               double min, double max) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::invalid_argument || ptr != end ||
      (error == std::errc() && !std::isfinite(value))) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a finite number, got '" +
                                   std::string(text) + "'");
  }
  if (error != std::errc() || value < min || value > max) {
    const auto shortest = [](double v) {
      char buf[32];
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    };
    return Status::InvalidArgument(std::string(name) + " must be in [" +
                                   shortest(min) + ", " + shortest(max) +
                                   "], got " + std::string(text));
  }
  return value;
}

int64_t EnvIntOr(const char* name, int64_t fallback, int64_t min,
                 int64_t max) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  const Result<int64_t> parsed = ParseIntFlag(name, text, min, max);
  if (parsed.ok()) return parsed.value();
  std::fprintf(stderr, "sthsl: %s; falling back to %lld\n",
               parsed.status().message().c_str(),
               static_cast<long long>(fallback));
  return fallback;
}

}  // namespace sthsl
