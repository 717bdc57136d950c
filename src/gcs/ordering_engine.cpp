#include "gcs/ordering_engine.h"

#include "gcs/engine_allack.h"
#include "gcs/engine_token.h"

namespace gcs {

std::string_view to_string(OrderingMode mode) {
  switch (mode) {
    case OrderingMode::kAllAck: return "allack";
    case OrderingMode::kTokenRing: return "token";
  }
  return "?";
}

std::optional<OrderingMode> parse_ordering_mode(std::string_view name) {
  if (name == "allack" || name == "all-ack" || name == "all_ack")
    return OrderingMode::kAllAck;
  if (name == "token" || name == "tokenring" || name == "token-ring" ||
      name == "token_ring")
    return OrderingMode::kTokenRing;
  return std::nullopt;
}

std::unique_ptr<OrderingEngine> make_engine(OrderingMode mode,
                                            const EngineTuning& tuning) {
  switch (mode) {
    case OrderingMode::kTokenRing:
      return std::make_unique<TokenRingEngine>(tuning);
    case OrderingMode::kAllAck:
      break;
  }
  return std::make_unique<AllAckEngine>();
}

}  // namespace gcs
