// TokenRingEngine: Totem-style circulating-privilege total order.
//
// A logical token circulates the sorted view members carrying the next
// global sequence number. Only the holder may assign global sequence
// numbers: it stamps every own message still awaiting a stamp with
// consecutive globals, broadcasts one stamp announcement for the whole
// batch, and unicasts the token to the next member on the ring. Delivery is
// then trivial: the message stamped delivered_global+1, once held locally.
// Control cost is one broadcast per *batch* plus one unicast per hop -- O(1)
// amortized per message -- instead of the all-ack engine's O(N) cuts per
// message.
//
// Loss handling:
//   * Lost stamp announcement: delivery stalls behind a global-sequence gap;
//     once the gap has persisted a full heartbeat tick (in-flight announces
//     get one tick to land) the stalled member broadcasts a stamp NACK for
//     the gap head -- at most every other tick, so a lost announcement does
//     not trigger a ring-wide NACK storm -- and any member that knows the
//     stamp re-announces a run of it, unicast to the requester (idempotent).
//   * Lost token: after `token_timeout` (plus slack proportional to the ring
//     size, since an idle token is only seen every N idle-cap hops) of ring
//     silence, the lowest view member runs a regeneration round: it
//     broadcasts a query carrying the replacement's token id, which fences
//     the old token everywhere it lands (a holder relinquishes), and every
//     other member replies with its next_global. Only when ALL of them have
//     answered does the minter take a token seeded with the maximum -- so a
//     regenerated token can never reassign a global any member has already
//     stamped or delivered, even when the stamp announcement and the token
//     hand-off were both lost in the same window. A member that cannot
//     answer is a suspect, and the view change resets the ring instead.
//     Lower-id tokens are discarded on arrival.
//   * Holder crash / partition: the view change resets the ring. Flush state
//     transfer (transfer_state / merge / install) unions every member's
//     stamp table so all members flush stamped messages in identical global
//     order before unstamped ones; the new view's lowest member mints the
//     next token. Token ids restart per view (the epoch fences cross-view
//     traffic).
//
// Idle throttling: a holder with nothing to stamp defers the hand-off by
// `token_idle`, doubling up to `token_idle_cap` while consecutive rotations
// stay idle, and forwards immediately when new traffic appears. This keeps a
// quiet ring from burning simulation events without adding latency under
// load.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "gcs/ordering_engine.h"

namespace gcs {

/// The token engine's wire bodies: its control traffic (the body of a gcs
/// kEngine message) and its flush transfer state.
namespace token {

/// Control body type: the first byte of every body.
enum class Sub : uint8_t {
  kToken = 1,       ///< the circulating token (unicast)
  kStamps = 2,      ///< batch stamp announcement (broadcast)
  kStampNack = 3,   ///< stamp-gap recovery request
  kRegenQuery = 4,  ///< regeneration round: fence + poll
  kRegenReply = 5,  ///< regeneration round: next_global
};

/// A global-sequence assignment: which message carries a global, fenced by
/// the id of the token that assigned it.
struct Stamp {
  MsgId id;
  uint64_t token_id = 0;
  bool operator==(const Stamp&) const = default;
};

struct Pass {
  uint64_t epoch = 0;
  uint64_t token_id = 0;
  uint64_t rotation = 0;
  uint64_t next_global = 0;
  bool operator==(const Pass&) const = default;
};
/// Stamps for the consecutive globals first, first + 1, ...
struct Stamps {
  uint64_t epoch = 0;
  uint64_t token_id = 0;
  uint64_t first = 0;
  std::vector<MsgId> ids;
  bool operator==(const Stamps&) const = default;
};
struct StampNack {
  uint64_t epoch = 0;
  uint64_t from_global = 0;
  bool operator==(const StampNack&) const = default;
};
struct RegenQuery {
  uint64_t epoch = 0;
  uint64_t regen_id = 0;
  bool operator==(const RegenQuery&) const = default;
};
struct RegenReply {
  uint64_t epoch = 0;
  uint64_t regen_id = 0;
  uint64_t next_global = 0;
  bool operator==(const RegenReply&) const = default;
};
/// Flush transfer state: every global assignment a member knows.
struct StampTable {
  uint64_t next_global = 0;
  std::map<uint64_t, Stamp> stamps;
  bool operator==(const StampTable&) const = default;
};

template <class Ar> void fields(Ar& ar, Stamp& s) { ar(s.id, s.token_id); }
template <class Ar> void fields(Ar& ar, Pass& m) {
  ar.tag(Sub::kToken);
  ar(m.epoch, m.token_id, m.rotation, m.next_global);
}
template <class Ar> void fields(Ar& ar, Stamps& m) {
  ar.tag(Sub::kStamps);
  ar(m.epoch, m.token_id, m.first, m.ids);
}
template <class Ar> void fields(Ar& ar, StampNack& m) {
  ar.tag(Sub::kStampNack);
  ar(m.epoch, m.from_global);
}
template <class Ar> void fields(Ar& ar, RegenQuery& m) {
  ar.tag(Sub::kRegenQuery);
  ar(m.epoch, m.regen_id);
}
template <class Ar> void fields(Ar& ar, RegenReply& m) {
  ar.tag(Sub::kRegenReply);
  ar(m.epoch, m.regen_id, m.next_global);
}
template <class Ar> void fields(Ar& ar, StampTable& m) {
  ar(m.next_global, m.stamps);
}

}  // namespace token

class TokenRingEngine : public OrderingEngine {
 public:
  explicit TokenRingEngine(const EngineTuning& tuning) : tuning_(tuning) {}

  OrderingMode mode() const override { return OrderingMode::kTokenRing; }

  EngineOut reset(const View& view, MemberId self, int64_t now_us) override;
  void clear() override;
  void observe(MemberId, uint64_t) override {}

  EngineOut on_local_send(const DataMsg& m, int64_t now_us) override;
  EngineOut on_insert(const DataMsg& m, int64_t now_us) override;
  EngineOut on_control(MemberId from, const sim::Payload& body,
                       int64_t now_us) override;
  EngineOut on_tick(int64_t now_us) override;
  EngineOut on_forward_timer(int64_t now_us) override;

  const DataMsg* next_deliverable() const override;
  void on_delivered(const DataMsg& m) override;

  /// Per-message reactive cuts are exactly the O(N) overhead the ring
  /// removes; stability rides on the periodic heartbeat cuts.
  bool wants_ack_cuts() const override { return false; }

  sim::Payload transfer_state() const override;
  sim::Payload merge_transfer_states(
      const std::vector<sim::Payload>& states) const override;
  void install_transfer_state(const sim::Payload& merged) override;
  void order_flush(std::vector<DataMsg>& msgs) const override;

  // Introspection for tests.
  bool holding_token() const { return holding_; }
  uint64_t delivered_global() const { return delivered_global_; }
  uint64_t next_global() const { return next_global_; }
  uint64_t token_id_seen() const { return token_id_seen_; }
  bool regen_pending() const { return regen_pending_; }

 private:
  using Stamp = token::Stamp;

  EngineOut take_token(int64_t now_us);
  EngineOut stamp_and_forward(int64_t now_us, bool may_defer);
  EngineOut forward_now(EngineOut out, int64_t now_us);
  EngineOut reannounce(MemberId to, uint64_t from_global) const;
  void apply_stamp(uint64_t global, const Stamp& s);
  void remember(uint64_t global, const Stamp& s);
  MemberId next_in_ring() const;

  EngineTuning tuning_;
  View view_;
  MemberId self_ = sim::kInvalidHost;
  /// Effective regeneration timeout for this view (token_timeout plus
  /// ring-size slack; see header comment).
  int64_t regen_timeout_us_ = 0;

  // -- token state -----------------------------------------------------------
  bool holding_ = false;
  /// Deferred idle hand-off scheduled (forward timer outstanding).
  bool forward_pending_ = false;
  /// Highest token id sighted in this view; a freshly minted token uses
  /// token_id_seen_ + 1, so regenerated tokens fence their predecessors.
  uint64_t token_id_seen_ = 0;
  uint64_t rotation_ = 0;
  /// Next global sequence number to assign; monotonic across views (flush
  /// state transfer carries the maximum forward).
  uint64_t next_global_ = 1;
  int64_t hold_start_us_ = 0;
  int64_t last_activity_us_ = 0;  ///< last token/stamp sighting
  int idle_streak_ = 0;

  // -- regeneration round ----------------------------------------------------
  /// The lowest member's regeneration round is in flight: the query is
  /// re-broadcast every tick until every other member's reply arrives.
  bool regen_pending_ = false;
  /// Token id the round is minting (== token_id_seen_ while pending).
  uint64_t regen_id_ = 0;
  /// Members whose reply to the current round has been recorded.
  std::set<MemberId> regen_replies_;

  // -- stamp-gap NACK rate limiting ------------------------------------------
  /// Gap head observed on the previous tick (0: none).
  uint64_t nack_head_ = 0;
  /// Consecutive ticks the same head has persisted.
  int nack_streak_ = 0;

  // -- order state -----------------------------------------------------------
  /// Contiguous prefix of globals delivered locally.
  uint64_t delivered_global_ = 0;
  /// Known, undelivered stamps by global.
  std::map<uint64_t, Stamp> stamps_;
  /// Own sends (seq numbers) awaiting a stamp.
  std::deque<uint64_t> my_unstamped_;
  /// Recent stamp history including delivered ones, for gap re-announces and
  /// flush state transfer. Bounded ring (kStampLogCap).
  std::deque<std::pair<uint64_t, Stamp>> stamp_log_;
  /// Per-global index over stamp_log_ (latest assignment per global), so a
  /// re-announce lookup is O(log n) instead of a reverse deque scan.
  std::map<uint64_t, Stamp> stamp_by_global_;
  /// Merged stamp table installed by the view-change commit; consulted only
  /// by order_flush.
  std::map<uint64_t, Stamp> flush_stamps_;
};

}  // namespace gcs
