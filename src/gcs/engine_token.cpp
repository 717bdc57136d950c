#include "gcs/engine_token.h"

#include <algorithm>

#include "gcs/ordering.h"

namespace gcs {
namespace {

/// Recent-stamp history kept per member for re-announces and flush transfer.
constexpr size_t kStampLogCap = 4096;
/// Stamps re-announced per NACK response (the requester renacks for more).
constexpr size_t kReannounceBatch = 32;

}  // namespace

EngineOut TokenRingEngine::reset(const View& view, MemberId self,
                                 int64_t now_us) {
  view_ = view;
  self_ = self;
  holding_ = false;
  forward_pending_ = false;
  idle_streak_ = 0;
  // Token ids restart per view -- the epoch already fences cross-view
  // traffic -- so a rejoined member can mint without knowing old ids.
  token_id_seen_ = 0;
  rotation_ = 0;
  regen_pending_ = false;
  regen_id_ = 0;
  regen_replies_.clear();
  nack_head_ = 0;
  nack_streak_ = 0;
  stamps_.clear();
  my_unstamped_.clear();
  stamp_log_.clear();
  stamp_by_global_.clear();
  flush_stamps_.clear();
  // next_global_ was raised to the merged maximum by install_transfer_state;
  // everything below it was either flush-delivered or dropped identically
  // everywhere, so the delivered prefix restarts just under it.
  delivered_global_ = next_global_ - 1;
  last_activity_us_ = now_us;
  // An idle token is only sighted once per lap, and an idle lap takes up to
  // size * idle_cap -- scale the loss timeout with the ring.
  regen_timeout_us_ =
      tuning_.token_timeout.us +
      3 * static_cast<int64_t>(view_.size()) * tuning_.token_idle_cap.us;
  if (!view_.members.empty() && view_.lowest() == self_) {
    ++token_id_seen_;
    return take_token(now_us);
  }
  return {};
}

void TokenRingEngine::clear() {
  view_ = View{};
  self_ = sim::kInvalidHost;
  holding_ = false;
  forward_pending_ = false;
  token_id_seen_ = 0;
  rotation_ = 0;
  next_global_ = 1;
  hold_start_us_ = 0;
  last_activity_us_ = 0;
  idle_streak_ = 0;
  delivered_global_ = 0;
  regen_timeout_us_ = 0;
  regen_pending_ = false;
  regen_id_ = 0;
  regen_replies_.clear();
  nack_head_ = 0;
  nack_streak_ = 0;
  stamps_.clear();
  my_unstamped_.clear();
  stamp_log_.clear();
  stamp_by_global_.clear();
  flush_stamps_.clear();
}

MemberId TokenRingEngine::next_in_ring() const {
  auto it = std::upper_bound(view_.members.begin(), view_.members.end(), self_);
  if (it == view_.members.end()) it = view_.members.begin();
  return *it;
}

void TokenRingEngine::remember(uint64_t global, const Stamp& s) {
  stamps_.insert_or_assign(global, s);
  stamp_by_global_.insert_or_assign(global, s);
  stamp_log_.emplace_back(global, s);
  if (stamp_log_.size() > kStampLogCap) {
    const auto& [g, old] = stamp_log_.front();
    // A re-stamp leaves two log entries for one global; evicting the older
    // one must not drop the index entry holding the newer assignment.
    auto it = stamp_by_global_.find(g);
    if (it != stamp_by_global_.end() && it->second.token_id == old.token_id)
      stamp_by_global_.erase(it);
    stamp_log_.pop_front();
  }
}

void TokenRingEngine::apply_stamp(uint64_t global, const Stamp& s) {
  if (global <= delivered_global_) return;  // already behind our prefix
  auto it = stamps_.find(global);
  // A regenerated (higher-id) token wins a stamp conflict; re-announces of
  // the same assignment are idempotent.
  if (it != stamps_.end() && it->second.token_id >= s.token_id) return;
  remember(global, s);
}

EngineOut TokenRingEngine::take_token(int64_t now_us) {
  holding_ = true;
  forward_pending_ = false;
  hold_start_us_ = now_us;
  last_activity_us_ = now_us;
  return stamp_and_forward(now_us, /*may_defer=*/true);
}

EngineOut TokenRingEngine::stamp_and_forward(int64_t now_us, bool may_defer) {
  EngineOut out;
  if (!my_unstamped_.empty()) {
    // Assign consecutive globals to the whole backlog and announce it in
    // chunks of at most max_batch stamps each (0: the whole backlog in one
    // announcement, the legacy wire behavior). A capped batch bounds the
    // blast radius of one lost announcement: the NACK path re-requests one
    // chunk-sized run instead of the entire hold's worth of stamps.
    const size_t cap = tuning_.max_batch == 0
                           ? my_unstamped_.size()
                           : static_cast<size_t>(tuning_.max_batch);
    while (!my_unstamped_.empty()) {
      const size_t n = std::min(my_unstamped_.size(), cap);
      token::Stamps announce{view_.id.epoch, token_id_seen_, next_global_, {}};
      announce.ids.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        MsgId id{self_, my_unstamped_.front()};
        my_unstamped_.pop_front();
        announce.ids.push_back(id);
        remember(next_global_++, Stamp{id, token_id_seen_});
      }
      if (view_.size() > 1) {
        out.broadcasts.push_back(net::encode(announce));
        out.batch_sizes.push_back(static_cast<uint32_t>(n));
      }
    }
    idle_streak_ = 0;
    last_activity_us_ = now_us;
  } else if (may_defer && view_.size() > 1) {
    // Nothing to stamp: hold the token briefly instead of spinning an idle
    // ring, backing off while consecutive laps stay idle.
    int64_t delay = std::min(tuning_.token_idle.us << std::min(idle_streak_, 6),
                             tuning_.token_idle_cap.us);
    ++idle_streak_;
    if (delay > 0) {
      forward_pending_ = true;
      out.forward_timer = sim::usec(delay);
      return out;
    }
  }
  if (view_.size() <= 1) return out;  // nobody to hand the token to
  return forward_now(std::move(out), now_us);
}

EngineOut TokenRingEngine::forward_now(EngineOut out, int64_t now_us) {
  holding_ = false;
  forward_pending_ = false;
  ++rotation_;
  out.unicast = {next_in_ring(),
                 net::encode(token::Pass{view_.id.epoch, token_id_seen_,
                                         rotation_, next_global_})};
  out.token_forward = true;
  out.token_hold_us = now_us - hold_start_us_;
  last_activity_us_ = now_us;
  return out;
}

EngineOut TokenRingEngine::on_local_send(const DataMsg& m, int64_t now_us) {
  my_unstamped_.push_back(m.id.seq);
  if (!holding_) return {};
  return stamp_and_forward(now_us, /*may_defer=*/false);
}

EngineOut TokenRingEngine::on_insert(const DataMsg&, int64_t now_us) {
  idle_streak_ = 0;
  if (holding_ && forward_pending_) {
    // Traffic appeared while idling with the token: hand it off now so the
    // sender gets stamped without waiting out the idle delay.
    return stamp_and_forward(now_us, /*may_defer=*/false);
  }
  return {};
}

EngineOut TokenRingEngine::on_control(MemberId from, const sim::Payload& body,
                                      int64_t now_us) {
  switch (net::peek_tag<token::Sub>(body)) {
    case token::Sub::kToken: {
      auto m = net::decode<token::Pass>(body);
      if (m.epoch != view_.id.epoch) return {};
      if (m.token_id < token_id_seen_) return {};  // fenced by a regeneration
      token_id_seen_ = m.token_id;
      next_global_ = std::max(next_global_, m.next_global);
      last_activity_us_ = now_us;
      // Already holding: a duplicate (regenerated) token caught up with the
      // live one; absorb it so a single token remains.
      if (holding_) return {};
      rotation_ = m.rotation;
      return take_token(now_us);
    }
    case token::Sub::kStamps: {
      auto m = net::decode<token::Stamps>(body);
      if (m.epoch != view_.id.epoch) return {};
      last_activity_us_ = now_us;
      idle_streak_ = 0;
      token_id_seen_ = std::max(token_id_seen_, m.token_id);
      for (size_t i = 0; i < m.ids.size(); ++i) {
        uint64_t g = m.first + i;
        next_global_ = std::max(next_global_, g + 1);
        apply_stamp(g, Stamp{m.ids[i], m.token_id});
      }
      return {};
    }
    case token::Sub::kStampNack: {
      auto m = net::decode<token::StampNack>(body);
      if (m.epoch != view_.id.epoch) return {};
      return reannounce(from, m.from_global);
    }
    case token::Sub::kRegenQuery: {
      auto m = net::decode<token::RegenQuery>(body);
      if (m.epoch != view_.id.epoch) return {};
      if (m.regen_id < token_id_seen_) return {};  // stale round, outlived
      if (m.regen_id > token_id_seen_) {
        // First sighting: the round fences the current token. A holder
        // relinquishes -- its token id just lost -- keeping its stamps (the
        // NACK path can re-announce them) and its unstamped backlog (the
        // minted token will stamp it).
        token_id_seen_ = m.regen_id;
        holding_ = false;
        forward_pending_ = false;
      }
      // Reply even to a repeated query: the previous reply may have been
      // lost, and the minter cannot take a token until everyone answered.
      EngineOut out;
      out.unicast = {from, net::encode(token::RegenReply{
                               view_.id.epoch, m.regen_id, next_global_})};
      return out;
    }
    case token::Sub::kRegenReply: {
      auto m = net::decode<token::RegenReply>(body);
      if (m.epoch != view_.id.epoch) return {};
      if (!regen_pending_ || m.regen_id != regen_id_) return {};
      next_global_ = std::max(next_global_, m.next_global);
      regen_replies_.insert(from);
      if (regen_replies_.size() + 1 < view_.size()) return {};
      // Everyone answered after being fenced, so no member can hold -- or
      // mint later -- an assignment at or above the merged next_global_:
      // the replacement token cannot reuse a delivered global.
      regen_pending_ = false;
      return take_token(now_us);
    }
  }
  return {};
}

EngineOut TokenRingEngine::on_tick(int64_t now_us) {
  if (view_.members.empty()) return {};
  // Token regeneration: the ring has been silent past the loss timeout; the
  // lowest member replaces the token. With peers this is a recovery round,
  // not a direct mint: the query fences the old token and collects every
  // member's next_global_, so the replacement cannot reassign a global that
  // was already stamped -- and possibly delivered -- under the old token
  // even when both the stamp announcement and the hand-off were lost.
  if (!holding_ && view_.lowest() == self_) {
    if (regen_pending_) {
      // Round in flight: re-broadcast the query until everyone's reply
      // lands (queries and replies are lossy too).
      EngineOut out;
      out.add_broadcast(
          net::encode(token::RegenQuery{view_.id.epoch, regen_id_}));
      return out;
    }
    if (now_us - last_activity_us_ > regen_timeout_us_) {
      if (view_.size() == 1) {  // nobody to consult (or to diverge from)
        ++token_id_seen_;
        return take_token(now_us);
      }
      regen_id_ = ++token_id_seen_;
      regen_pending_ = true;
      regen_replies_.clear();
      EngineOut out;
      out.add_broadcast(
          net::encode(token::RegenQuery{view_.id.epoch, regen_id_}));
      return out;
    }
  }
  // Stamp-gap recovery: delivery is stalled behind a global we never heard
  // the assignment for (the announce was lost); ask the ring. The gap is
  // visible either from a later stamp or from the token's next_global.
  if (view_.size() > 1 && next_global_ > delivered_global_ + 1 &&
      stamps_.find(delivered_global_ + 1) == stamps_.end()) {
    uint64_t head = delivered_global_ + 1;
    if (head != nack_head_) {
      // Fresh gap: give the in-flight announcement one full tick to land
      // before asking the ring.
      nack_head_ = head;
      nack_streak_ = 0;
      return {};
    }
    // Persisted gap: NACK at most every other tick, so one lost
    // announcement costs the ring a trickle, not a storm.
    if (++nack_streak_ % 2 != 1) return {};
    EngineOut out;
    out.add_broadcast(net::encode(token::StampNack{view_.id.epoch, head}));
    return out;
  }
  nack_head_ = 0;
  nack_streak_ = 0;
  return {};
}

EngineOut TokenRingEngine::on_forward_timer(int64_t now_us) {
  if (!holding_ || !forward_pending_) return {};  // stale timer
  forward_pending_ = false;
  return stamp_and_forward(now_us, /*may_defer=*/false);
}

EngineOut TokenRingEngine::reannounce(MemberId to, uint64_t from_global) const {
  auto lookup = [this](uint64_t g) -> const Stamp* {
    // stamp_by_global_ indexes the whole log; stamps_ additionally covers
    // live assignments old enough to have been evicted from it.
    auto it = stamp_by_global_.find(g);
    if (it != stamp_by_global_.end()) return &it->second;
    auto sit = stamps_.find(g);
    return sit == stamps_.end() ? nullptr : &sit->second;
  };
  // Respond only if we know the assignment at exactly the gap head (anyone
  // may answer; the announcement is idempotent). One announce covers a
  // contiguous same-token-id run, unicast to the requester -- a broadcast
  // answer times N requesters is exactly the storm the NACK limiter avoids.
  const Stamp* head = lookup(from_global);
  if (head == nullptr) return {};
  token::Stamps run{view_.id.epoch, head->token_id, from_global, {head->id}};
  while (run.ids.size() < kReannounceBatch) {
    const Stamp* s = lookup(from_global + run.ids.size());
    if (s == nullptr || s->token_id != head->token_id) break;
    run.ids.push_back(s->id);
  }
  EngineOut out;
  out.unicast = {to, net::encode(run)};
  return out;
}

const DataMsg* TokenRingEngine::next_deliverable() const {
  if (buffer_ == nullptr) return nullptr;
  auto it = stamps_.find(delivered_global_ + 1);
  if (it == stamps_.end()) return nullptr;  // no stamp yet (or gap: NACKed)
  // nullptr on a data gap: the NACK path will fill it.
  return buffer_->find_pending(it->second.id);
}

void TokenRingEngine::on_delivered(const DataMsg& m) {
  auto it = stamps_.find(delivered_global_ + 1);
  if (it != stamps_.end() && it->second.id == m.id) {
    ++delivered_global_;
    stamps_.erase(it);
  }
}

sim::Payload TokenRingEngine::transfer_state() const {
  // Everything we know about global assignments: the log index (delivered
  // stamps matter too -- a member that lagged behind must flush them in the
  // same order we delivered them) plus live stamps the bounded log evicted.
  token::StampTable table{next_global_, stamp_by_global_};
  for (const auto& [g, s] : stamps_) table.stamps.emplace(g, s);
  return net::encode(table);
}

sim::Payload TokenRingEngine::merge_transfer_states(
    const std::vector<sim::Payload>& states) const {
  token::StampTable merged{next_global_, {}};
  for (const sim::Payload& p : states) {
    if (p.empty()) continue;
    auto table = net::decode<token::StampTable>(p);
    merged.next_global = std::max(merged.next_global, table.next_global);
    for (const auto& [g, s] : table.stamps) {
      auto [it, inserted] = merged.stamps.emplace(g, s);
      if (!inserted && s.token_id > it->second.token_id) it->second = s;
    }
  }
  return net::encode(merged);
}

void TokenRingEngine::install_transfer_state(const sim::Payload& merged) {
  if (merged.empty()) {
    flush_stamps_.clear();
    return;
  }
  // Decode the whole table before touching any state.
  auto table = net::decode<token::StampTable>(merged);
  next_global_ = std::max(next_global_, table.next_global);
  flush_stamps_ = std::move(table.stamps);
}

void TokenRingEngine::order_flush(std::vector<DataMsg>& msgs) const {
  if (flush_stamps_.empty()) return;
  // Flush delivers stamped messages first, in global order -- every member
  // installed the same merged table, so this order is identical everywhere
  // and consistent with what faster members already delivered live -- then
  // the unstamped remainder in the caller's OrderKey order.
  std::map<MsgId, uint64_t> global_of;
  for (const auto& [g, s] : flush_stamps_) {
    auto [it, inserted] = global_of.emplace(s.id, g);
    if (!inserted && g < it->second) it->second = g;
  }
  std::stable_sort(msgs.begin(), msgs.end(),
                   [&](const DataMsg& a, const DataMsg& b) {
                     auto ga = global_of.find(a.id);
                     auto gb = global_of.find(b.id);
                     bool sa = ga != global_of.end();
                     bool sb = gb != global_of.end();
                     if (sa != sb) return sa;
                     if (sa) return ga->second < gb->second;
                     return order_key(a) < order_key(b);
                   });
}

}  // namespace gcs
