#include "util/build_info.h"

namespace sthsl {

// STHSL_GIT_HASH is defined for this file alone by src/CMakeLists.txt, so a
// new commit recompiles one translation unit.
const char* GitHash() { return STHSL_GIT_HASH; }

}  // namespace sthsl
