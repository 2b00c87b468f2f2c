#include "common/status.h"

namespace ecdb {

namespace {

const char* CodeName(Code code) {
  switch (code) {
    case Code::kOk:
      return "OK";
    case Code::kNotFound:
      return "NotFound";
    case Code::kAlreadyExists:
      return "AlreadyExists";
    case Code::kConflict:
      return "Conflict";
    case Code::kAborted:
      return "Aborted";
    case Code::kBlocked:
      return "Blocked";
    case Code::kTimedOut:
      return "TimedOut";
    case Code::kInvalidArgument:
      return "InvalidArgument";
    case Code::kIOError:
      return "IOError";
    case Code::kUnavailable:
      return "Unavailable";
    case Code::kInternal:
      return "Internal";
  }
  return "Unknown";
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

}  // namespace ecdb
