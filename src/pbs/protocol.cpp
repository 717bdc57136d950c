#include "pbs/protocol.h"

namespace pbs {

std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUnknownJob: return "unknown job";
    case Status::kInvalidState: return "invalid job state";
    case Status::kUnsupported: return "operation not supported";
    case Status::kServerBusy: return "server busy";
    case Status::kInternal: return "internal error";
  }
  return "?";
}

}  // namespace pbs
