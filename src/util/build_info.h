#ifndef STHSL_UTIL_BUILD_INFO_H_
#define STHSL_UTIL_BUILD_INFO_H_

namespace sthsl {

/// The configure-time commit: the `git rev-parse HEAD` that src/CMakeLists.txt
/// ran when the build tree was configured, or "unknown" when the sources were
/// not a git checkout. Commits made after configuring show up only once the
/// build is configured again. Bundles and bench documents record it as their
/// provenance.
const char* GitHash();

}  // namespace sthsl

#endif  // STHSL_UTIL_BUILD_INFO_H_
