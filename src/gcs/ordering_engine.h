// OrderingEngine: the total-order strategy of the group communication
// system, factored out of OrderingBuffer/GroupMember so the delivery
// condition is pluggable.
//
// The split of responsibilities:
//   * OrderingBuffer stays the *reliability* substrate: per-sender
//     contiguity (watermarks, out-of-order staging, NACK gap detection),
//     peer cuts for stability/SAFE, delivered counts, flush bookkeeping.
//   * OrderingEngine owns the *total-order decision*: which AGREED/SAFE
//     message is next and whether it may deliver now.
//
// Two engines ship:
//   * AllAckEngine -- the Transis-style all-ack Lamport order the project
//     started with (wait for lamport/cut evidence from every view member;
//     O(N) acks per message). Behavior-compatible with the pre-refactor
//     code, byte for byte.
//   * TokenRingEngine -- a Totem-style privilege order: a logical token
//     circulates the view carrying the next global sequence number; the
//     holder stamps its batched pending messages and announces the stamps;
//     delivery is a contiguous global-sequence prefix. O(1) control
//     messages per message (amortized), so it overtakes all-ack at large N.
//
// Engines are deliberately passive: they never touch timers or the network.
// Every hook takes the current simulated time and returns an EngineOut
// describing what the host GroupMember should transmit; GroupMember wraps
// engine payloads in MsgType::kEngine control messages and routes inbound
// ones back via on_control().
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "gcs/types.h"
#include "sim/time.h"

namespace gcs {

class OrderingBuffer;

enum class OrderingMode : uint8_t {
  kAllAck = 0,    ///< Transis-style all-ack Lamport order (the default)
  kTokenRing = 1, ///< Totem-style circulating-token global sequencer
};

std::string_view to_string(OrderingMode mode);
std::optional<OrderingMode> parse_ordering_mode(std::string_view name);

/// Engine knobs resolved by the host GroupMember from its GroupConfig.
struct EngineTuning {
  /// Token mode: forward delay when holding the token with nothing to
  /// stamp. Backs off exponentially up to `token_idle_cap` while the ring
  /// is idle so a quiet view does not burn simulation events.
  sim::Duration token_idle = sim::msec(2);
  sim::Duration token_idle_cap = sim::msec(100);
  /// Token mode: silence on the ring after which the lowest member
  /// regenerates a lost token.
  sim::Duration token_timeout = sim::msec(400);
  /// Token mode: cap on stamps per announcement broadcast. A holder with a
  /// bigger backlog emits several announcements in one hold. 0: unlimited
  /// (the whole backlog in one announcement -- the legacy wire behavior).
  uint32_t max_batch = 0;
};

/// What an engine hook wants transmitted / recorded. Engines cannot send;
/// GroupMember applies this after every hook call.
struct EngineOut {
  /// Engine control payloads for every other view member, sent in order.
  /// A batching holder emits one element per stamp-announcement chunk.
  std::vector<sim::Payload> broadcasts;
  /// Stamp counts to record into the gcs.batch_size histogram (parallel to
  /// the announcement broadcasts; non-announcement broadcasts add nothing).
  std::vector<uint32_t> batch_sizes;
  /// Engine control payload for one member (token hand-off).
  std::optional<std::pair<MemberId, sim::Payload>> unicast;
  /// The unicast is a token hand-off: count a rotation.
  bool token_forward = false;
  /// Token hold time to record into gcs.token.hold_us (< 0: none).
  int64_t token_hold_us = -1;
  /// Ask the host to call on_forward_timer() after this delay (idle token
  /// throttling). Zero: no timer.
  sim::Duration forward_timer = sim::kDurationZero;

  /// Append one broadcast payload (convenience for single-payload hooks).
  void add_broadcast(sim::Payload p) { broadcasts.push_back(std::move(p)); }

  bool empty() const {
    return broadcasts.empty() && !unicast && token_hold_us < 0 &&
           forward_timer.us == 0;
  }
};

class OrderingEngine {
 public:
  virtual ~OrderingEngine() = default;

  virtual OrderingMode mode() const = 0;
  std::string_view name() const { return to_string(mode()); }

  /// Non-owning back-pointer to the buffer whose pending set this engine
  /// orders. Set once, before the first reset().
  void attach(const OrderingBuffer* buffer) { buffer_ = buffer; }

  /// A view was installed (called after OrderingBuffer::reset). May emit
  /// output: the token engine's lowest member mints the new view's token.
  virtual EngineOut reset(const View& view, MemberId self, int64_t now_us) = 0;

  /// Member went down; drop everything (mirror of OrderingBuffer::clear_all).
  virtual void clear() = 0;

  /// Protocol metadata heard from `p` (any traffic; lamport clock only --
  /// cuts and sent watermarks live in the buffer).
  virtual void observe(MemberId p, uint64_t lamport) = 0;

  /// This member multicast m (already inserted into the buffer).
  virtual EngineOut on_local_send(const DataMsg& m, int64_t now_us) = 0;

  /// A remote message was newly inserted into the buffer.
  virtual EngineOut on_insert(const DataMsg& m, int64_t now_us) = 0;

  /// An engine control message arrived from a view member.
  virtual EngineOut on_control(MemberId from, const sim::Payload& body,
                               int64_t now_us) = 0;

  /// Periodic heartbeat tick (failure-detector cadence): token
  /// regeneration, stamp-gap recovery.
  virtual EngineOut on_tick(int64_t now_us) = 0;

  /// A forward_timer requested earlier has fired.
  virtual EngineOut on_forward_timer(int64_t now_us) = 0;

  /// The next AGREED/SAFE message whose delivery condition holds, or
  /// nullptr. Points into the buffer's pending set; valid until the buffer
  /// mutates.
  virtual const DataMsg* next_deliverable() const = 0;

  /// An AGREED/SAFE message was delivered (via next_deliverable or flush).
  virtual void on_delivered(const DataMsg& m) = 0;

  /// Should every data message be acked with a reactive cut? All-ack needs
  /// it (the cut IS the delivery evidence); token order does not -- its
  /// delivery evidence is the stamp, and per-message cuts are exactly the
  /// O(N) overhead the ring removes. Stability/SAFE then ride on the
  /// periodic heartbeat cuts.
  virtual bool wants_ack_cuts() const { return true; }

  // -- flush / view-change state transfer ------------------------------------
  /// Opaque engine state carried in this member's flush ack (token mode:
  /// the stamp table, so every member flushes in the same global order).
  virtual sim::Payload transfer_state() const { return {}; }
  /// Coordinator: merge all members' transfer_state payloads into the one
  /// carried by the commit. Must be associative and deterministic.
  virtual sim::Payload merge_transfer_states(
      const std::vector<sim::Payload>& states) const {
    (void)states;
    return {};
  }
  /// Everyone: install the commit's merged state *before* the flush
  /// delivery so order_flush agrees at every member.
  virtual void install_transfer_state(const sim::Payload& merged) {
    (void)merged;
  }
  /// Put the flushed message set into delivery order. Default: keep the
  /// caller's OrderKey order (all-ack semantics).
  virtual void order_flush(std::vector<DataMsg>& msgs) const { (void)msgs; }

 protected:
  const OrderingBuffer* buffer_ = nullptr;
};

std::unique_ptr<OrderingEngine> make_engine(OrderingMode mode,
                                            const EngineTuning& tuning);

}  // namespace gcs
