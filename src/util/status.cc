#include "util/status.h"

namespace sthsl {
namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Status::Code::kNotFound:
      return "NOT_FOUND";
    case Status::Code::kIoError:
      return "IO_ERROR";
    case Status::Code::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case Status::Code::kOutOfRange:
      return "OUT_OF_RANGE";
    case Status::Code::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case Status::Code::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace sthsl
