#include "gcs/types.h"

namespace gcs {

std::string_view to_string(Delivery level) {
  switch (level) {
    case Delivery::kFifo: return "FIFO";
    case Delivery::kCausal: return "CAUSAL";
    case Delivery::kAgreed: return "AGREED";
    case Delivery::kSafe: return "SAFE";
  }
  return "?";
}

}  // namespace gcs
