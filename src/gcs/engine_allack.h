// AllAckEngine: the Transis-style all-ack Lamport total order, re-homed from
// OrderingBuffer with zero behavioral change.
//
// A message m delivers once every other view member has either sent m itself
// or been heard with a lamport clock above m.lamport (so no earlier
// total-order message can still arrive from it), and no known per-sender gap
// is outstanding. The lamport evidence lives here; the sent/received
// watermarks it is checked against stay in the OrderingBuffer (they also
// drive NACKs and stability).
#pragma once

#include <vector>

#include "gcs/ordering_engine.h"

namespace gcs {

class AllAckEngine : public OrderingEngine {
 public:
  OrderingMode mode() const override { return OrderingMode::kAllAck; }

  EngineOut reset(const View& view, MemberId self, int64_t now_us) override;
  void clear() override;
  void observe(MemberId p, uint64_t lamport) override;

  EngineOut on_local_send(const DataMsg&, int64_t) override { return {}; }
  EngineOut on_insert(const DataMsg&, int64_t) override { return {}; }
  EngineOut on_control(MemberId, const sim::Payload&, int64_t) override {
    return {};
  }
  EngineOut on_tick(int64_t) override { return {}; }
  EngineOut on_forward_timer(int64_t) override { return {}; }

  const DataMsg* next_deliverable() const override;
  void on_delivered(const DataMsg&) override {}

 private:
  bool agreed_condition(const DataMsg& m) const;

  View view_;
  MemberId self_ = sim::kInvalidHost;
  /// Highest lamport timestamp heard from each member (on any traffic), by
  /// view rank.
  std::vector<uint64_t> heard_;
};

}  // namespace gcs
