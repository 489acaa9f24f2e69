#ifndef STHSL_UTIL_FLAGS_H_
#define STHSL_UTIL_FLAGS_H_

#include <cstdint>
#include <string_view>

#include "util/status.h"

namespace sthsl {

/// Parses the integer value of command-line flag or environment variable
/// `name`. The whole of `text` must be one base-10 integer (an optional
/// leading '-', no blanks, no trailing bytes) in [min, max]; anything else is
/// InvalidArgument with a message that names `name`, so tools can refuse a
/// bad value before doing any work instead of truncating or wrapping it.
Result<int64_t> ParseIntFlag(std::string_view name, std::string_view text,
                             int64_t min, int64_t max);

/// ParseIntFlag for a floating-point value: the whole of `text` must be one
/// finite decimal number (no blanks, no trailing bytes) in [min, max].
Result<double> ParseDoubleFlag(std::string_view name, std::string_view text,
                               double min, double max);

/// Reads environment variable `name` through ParseIntFlag. Unset or empty
/// yields `fallback`; a value ParseIntFlag refuses prints one stderr line
/// naming the variable and `fallback`, then yields `fallback`. Writes with
/// fprintf, not STHSL_LOG, so static initialisers may call it.
int64_t EnvIntOr(const char* name, int64_t fallback, int64_t min,
                 int64_t max);

}  // namespace sthsl

#endif  // STHSL_UTIL_FLAGS_H_
