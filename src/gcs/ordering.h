// Ordering buffer: the reliability substrate of the group communication
// protocol, independent of networking so it can be unit- and property-tested
// in isolation.
//
// The buffer owns per-sender contiguity (watermarks + out-of-order staging),
// NACK gap detection, peer cuts (for stability garbage collection; a dense
// matrix by view rank, DESIGN.md section 7.2) and flush bookkeeping. Every message is delivered in one total order (Transis's
// AGREED service), and the *total-order decision* -- which message may
// deliver next -- is delegated to a pluggable OrderingEngine (see
// ordering_engine.h):
//
//   * AllAckEngine (default): the classic Lamport (timestamp, sender-id)
//     order with an all-ack stability rule (Transis ToTo style) -- m is
//     deliverable once every view member has been heard past m.lamport and
//     claims no outstanding sends we miss.
//   * TokenRingEngine: a circulating token assigns global sequence numbers.
//
// A GroupMember attaches its own engine and drives its lifecycle explicitly;
// a bare buffer (unit tests) lazily creates a private AllAckEngine and keeps
// it in sync inside reset()/clear_all(), preserving the pre-refactor
// standalone semantics exactly.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "gcs/types.h"

namespace gcs {

class OrderingEngine;

class OrderingBuffer {
 public:
  OrderingBuffer();
  ~OrderingBuffer();
  OrderingBuffer(const OrderingBuffer&) = delete;
  OrderingBuffer& operator=(const OrderingBuffer&) = delete;

  /// Use `engine` (owned by the caller, which also drives its reset/clear
  /// lifecycle) instead of the buffer's private fallback engine.
  void attach_engine(OrderingEngine* engine);

  /// Start (or restart) buffering for a view. Own lamport/delivered history
  /// is external; the buffer only tracks per-view delivery state.
  void reset(const View& view, MemberId self);

  const View& view() const { return view_; }
  MemberId self() const { return self_; }

  /// Insert a data message (own messages included). Duplicates are ignored.
  /// Returns true if the message was new.
  bool insert(const DataMsg& m);

  /// Record protocol metadata heard from member `p`: its lamport clock, the
  /// highest sequence number it claims to have sent, and its received
  /// vector (per-sender contiguous seq it holds, as sorted pairs). Data
  /// messages, cuts and heartbeats all feed this. Ignored unless `p` is a
  /// view member; cut entries for non-members are skipped, and repeated
  /// entries merge by maximum (the cut comes off the wire).
  void observe(MemberId p, uint64_t lamport, uint64_t sent_upto,
               const CutVector& received);
  /// The same, merging the cut straight from the packet it arrived in.
  void observe_in_place(MemberId p, uint64_t lamport, uint64_t sent_upto,
                        const CutView& received);

  /// Pop every message whose delivery condition now holds, in the engine's
  /// total order.
  std::vector<DataMsg> drain();

  /// View change: deliver every contiguously-held message regardless of
  /// stability (flush agreement already guaranteed everyone holds the same
  /// set), in the engine's flush order. Out-of-order remnants past a
  /// permanent gap are discarded (identically at every member, since all
  /// flush from the same union).
  std::vector<DataMsg> flush_all();

  /// Everything currently held and undelivered (for the flush exchange).
  std::vector<DataMsg> held_messages() const;

  /// Per-sender contiguous received sequence (our cut / ack vector), sorted
  /// by member, including senders that have left the view. This is the
  /// watermark store itself, so reading it costs nothing.
  const CutVector& received_vector() const { return received_; }

  /// Highest contiguous seq received from one sender.
  uint64_t received_upto(MemberId sender) const;

  // -- engine-facing queries ---------------------------------------------------
  /// Contiguously received, undelivered messages in OrderKey order.
  const std::map<OrderKey, DataMsg>& pending() const { return pending_; }
  /// Look up one pending (contiguous, undelivered) message by id.
  const DataMsg* find_pending(const MsgId& id) const;
  /// Highest seq `q` claims to have sent / `q`'s cut entry for `sender`.
  /// No engine reads them; tests compare them against a model.
  uint64_t peer_sent_upto(MemberId q) const;
  uint64_t peer_received(MemberId q, MemberId sender) const;

  /// Known gaps: message ids we should NACK (claimed sent but not held),
  /// by sender, among the kNackWindow ids above each sender's watermark.
  /// O(1) when nothing is missing.
  std::vector<MsgId> gaps() const;
  static constexpr uint64_t kNackWindow = 1024;
  /// Does some other member claim to have sent more than we hold of its
  /// stream? (All-ack: no earlier-ordered message may still be missing.)
  /// O(1).
  bool missing_from_peers() const;

  /// Lowest receive point of `sender`'s stream across all view members'
  /// cuts: messages at or below it are stable and may be garbage-collected
  /// by the retention log. O(1) amortized for a member's stream.
  uint64_t stable_upto(MemberId sender) const;

  size_t pending_count() const { return pending_.size() + out_of_order_.size(); }

  /// Force the receive watermark of `sender`'s stream to `seq`.
  /// Used at view install: joiners align to the old view's baseline, and a
  /// fresh (restarted) member's stream is reset to zero everywhere.
  void set_stream_position(MemberId sender, uint64_t seq);

  /// Forget everything member `m` ever claimed (sent watermark + its cut
  /// vector) and every peer's claims about m's stream. Used at view install
  /// for a *reincarnated* member: it stayed in the membership across a
  /// crash+rejoin, so the merge pass in reset() would keep its old
  /// incarnation's claims -- a stale sent_upto above the fresh stream blocks
  /// the all-ack condition (and draws NACKs for messages the new incarnation
  /// never sent) forever, and peers' stale acks of the old stream would make
  /// the fresh one look stable before anyone holds it.
  void reset_peer(MemberId m);

  /// Drop all per-member counters and state (member rejoin from scratch).
  void clear_all();

 private:
  template <class Cut>
  void merge_cut(MemberId p, uint64_t lamport, uint64_t sent_upto,
                 const Cut& received);
  /// Row q's claim about column s's stream rose to `seq`.
  void raise_ack(size_t q, size_t s, uint64_t seq);
  /// Row q's claim about column s's stream drops to 0 (reset_peer).
  void drop_ack(size_t q, size_t s);
  /// Recompute column s's minimum and ring from acks_.
  void rebuild_column(size_t s);
  void rebuild_columns();
  /// Does rank r (or nothing, for r < 0) claim more than we hold?
  bool behind(int r) const {
    return r >= 0 && sent_upto_[r] > received_[slot_[r]].second;
  }
  /// Rank r's sent or receive watermark moved; `was` is behind(r) before.
  void recount(int r, bool was) {
    behind_ += behind(r);
    behind_ -= was;
  }
  void promote_out_of_order(MemberId sender);
  /// Remove a pending message, handing it back (moved, not copied).
  DataMsg take_pending(std::map<OrderKey, DataMsg>::iterator it);
  /// The receive watermark of `sender`'s stream (an entry at 0 is created
  /// for a sender never seen before).
  uint64_t& watermark(MemberId sender);
  /// Point slot_ at each member's entry in received_.
  void index_watermarks();
  OrderingEngine& engine();
  const OrderingEngine& engine() const;

  View view_;
  MemberId self_ = sim::kInvalidHost;
  int self_rank_ = -1;
  /// Contiguously received, undelivered messages, in total order.
  std::map<OrderKey, DataMsg> pending_;
  /// Id index into pending_ (token engine looks messages up by stamp).
  std::map<MsgId, OrderKey> pending_ix_;
  /// Received above a gap, staged until contiguity catches up.
  std::map<MsgId, DataMsg> out_of_order_;
  /// Contiguous receive watermark per sender, sorted by member. Entries for
  /// departed senders stay: stream positions outlive views.
  CutVector received_;
  /// By view rank: the index of that member's entry in received_.
  std::vector<uint32_t> slot_;

  // Peer claims, dense by view rank and rebuilt by reset(): claims exist
  // only by members about members' streams.
  /// N x N, row = observer's rank, column = sender's rank: the highest
  /// contiguous seq of the sender's stream the observer claims to hold.
  /// Stability of a stream is a column minimum.
  std::vector<uint64_t> acks_;
  /// By rank: the highest seq the member claims to have sent.
  std::vector<uint64_t> sent_upto_;

  // Derived from the above and kept exact as it changes (DESIGN.md
  // section 7.2), so the per-packet queries need no N-wide scan.
  /// By column: the minimum over every row but ours (UINT64_MAX when there
  /// is no such row). stable_upto is this against our own watermark.
  std::vector<uint64_t> col_min_;
  /// By column, kAckRing slots: slot v % kAckRing counts the rows holding
  /// v, for v in [col_min_, col_min_ + kAckRing). col_far_ counts the rows
  /// above that window; the minimum advances to the next occupied slot
  /// when its last row rises, and only a column with rows beyond the
  /// window is rescanned then.
  static constexpr uint64_t kAckRing = 16;
  std::vector<uint32_t> col_ring_;
  std::vector<uint32_t> col_far_;
  /// Ranks r with sent_upto_[r] above our watermark of r's stream.
  size_t behind_ = 0;

  /// The attached engine, or the lazily-created private fallback.
  OrderingEngine* engine_ = nullptr;
  std::unique_ptr<OrderingEngine> fallback_;
};

}  // namespace gcs
