#include "gcs/ordering.h"

#include <algorithm>
#include <utility>

#include "gcs/ordering_engine.h"

namespace gcs {

OrderingBuffer::OrderingBuffer() = default;
OrderingBuffer::~OrderingBuffer() = default;

void OrderingBuffer::attach_engine(OrderingEngine* engine) {
  engine_ = engine;
  fallback_.reset();
  if (engine_ != nullptr) engine_->attach(this);
}

OrderingEngine& OrderingBuffer::engine() {
  if (engine_ == nullptr) {
    // Standalone buffer (unit tests): private all-ack engine, kept in sync
    // by reset()/clear_all() below.
    fallback_ = make_engine(OrderingMode::kAllAck, EngineTuning{});
    fallback_->attach(this);
    engine_ = fallback_.get();
  }
  return *engine_;
}

const OrderingEngine& OrderingBuffer::engine() const {
  return const_cast<OrderingBuffer*>(this)->engine();
}

void OrderingBuffer::reset(const View& view, MemberId self) {
  // Ranks move only here. Surviving members keep their claims about
  // surviving members' streams; departed members' rows and columns go
  // (their silence must not block delivery conditions, and a member
  // re-entering later does so as a joiner whose stream restarts at zero);
  // new members start at zero.
  const size_t n = view.size();
  const size_t old_n = view_.size();
  std::vector<int> old_rank(n);
  for (size_t i = 0; i < n; ++i) old_rank[i] = view_.rank(view.members[i]);
  std::vector<uint64_t> acks(n * n, 0);
  std::vector<uint64_t> sent(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (old_rank[i] < 0) continue;
    const uint64_t* old_row = &acks_[old_rank[i] * old_n];
    sent[i] = sent_upto_[old_rank[i]];
    for (size_t j = 0; j < n; ++j)
      if (old_rank[j] >= 0) acks[i * n + j] = old_row[old_rank[j]];
  }
  acks_ = std::move(acks);
  sent_upto_ = std::move(sent);
  view_ = view;
  self_ = self;
  self_rank_ = view_.rank(self);
  pending_.clear();
  pending_ix_.clear();
  out_of_order_.clear();
  // Receive watermarks persist across views: sequence numbers are global
  // per sender, and a new view's first message continues the stream.
  for (MemberId m : view_.members) {
    auto it = std::lower_bound(received_.begin(), received_.end(),
                               std::make_pair(m, uint64_t{0}));
    if (it == received_.end() || it->first != m) received_.emplace(it, m, 0);
  }
  index_watermarks();
  rebuild_columns();
  behind_ = 0;
  for (size_t r = 0; r < n; ++r) behind_ += behind(static_cast<int>(r));
  // An attached engine's lifecycle is driven by its owner (GroupMember
  // resets it at view install, after stream positions settle); only the
  // private fallback follows the buffer.
  engine();
  if (fallback_) fallback_->reset(view_, self_, 0);
}

void OrderingBuffer::index_watermarks() {
  // reset() gives every member an entry, so each scan stops on its own.
  slot_.resize(view_.size());
  size_t k = 0;
  for (size_t r = 0; r < view_.size(); ++r) {
    while (received_[k].first < view_.members[r]) ++k;
    slot_[r] = static_cast<uint32_t>(k);
  }
}

uint64_t& OrderingBuffer::watermark(MemberId sender) {
  int r = view_.rank(sender);
  if (r >= 0) return received_[slot_[r]].second;
  auto it = std::lower_bound(received_.begin(), received_.end(),
                             std::make_pair(sender, uint64_t{0}));
  if (it != received_.end() && it->first == sender) return it->second;
  // A sender outside the view (rare): insert in order, then re-point slots.
  size_t at = static_cast<size_t>(it - received_.begin());
  received_.emplace(it, sender, 0);
  index_watermarks();
  return received_[at].second;
}

bool OrderingBuffer::insert(const DataMsg& m) {
  uint64_t& upto = watermark(m.id.sender);
  // The per-sender watermark is the whole duplicate check: every message in
  // pending_ was contiguous when it arrived (seq <= upto by construction),
  // so `seq <= upto` subsumes the old O(pending) scan; anything above the
  // watermark can only collide inside out_of_order_.
  if (m.id.seq <= upto) return false;  // duplicate of something contiguous
  if (out_of_order_.count(m.id)) return false;
  if (m.id.seq == upto + 1) {
    const int r = view_.rank(m.id.sender);
    const bool was = behind(r);
    upto = m.id.seq;
    pending_.emplace(order_key(m), m);
    pending_ix_.emplace(m.id, order_key(m));
    promote_out_of_order(m.id.sender);
    recount(r, was);
  } else {
    out_of_order_.emplace(m.id, m);
  }
  return true;
}

void OrderingBuffer::promote_out_of_order(MemberId sender) {
  uint64_t& upto = watermark(sender);
  while (true) {
    auto it = out_of_order_.find(MsgId{sender, upto + 1});
    if (it == out_of_order_.end()) return;
    upto = it->first.seq;
    pending_ix_.emplace(it->first, order_key(it->second));
    pending_.emplace(order_key(it->second), std::move(it->second));
    out_of_order_.erase(it);
  }
}

DataMsg OrderingBuffer::take_pending(
    std::map<OrderKey, DataMsg>::iterator it) {
  auto node = pending_.extract(it);
  pending_ix_.erase(node.mapped().id);
  return std::move(node.mapped());
}

void OrderingBuffer::observe(MemberId p, uint64_t lamport, uint64_t sent_upto,
                             const CutVector& received) {
  merge_cut(p, lamport, sent_upto, received);
}

void OrderingBuffer::observe_in_place(MemberId p, uint64_t lamport,
                                      uint64_t sent_upto,
                                      const CutView& received) {
  merge_cut(p, lamport, sent_upto, received);
}

template <class Cut>
void OrderingBuffer::merge_cut(MemberId p, uint64_t lamport,
                               uint64_t sent_upto, const Cut& received) {
  // Only members' claims about members' streams count (a cut also carries
  // entries for departed senders; the wire may carry anything).
  const int q = view_.rank(p);
  if (q < 0) return;
  if (sent_upto > sent_upto_[q]) {
    const bool was = behind(q);
    sent_upto_[q] = sent_upto;
    recount(q, was);
  }
  const std::vector<MemberId>& members = view_.members;
  const size_t n = members.size();
  const size_t row = static_cast<size_t>(q) * n;
  const size_t k = received.size();
  // One pass. An entry is first looked for at the rank after the previous
  // one's, which is where every entry of the common cut sits (it lists the
  // view rank by rank); any other entry -- a departed sender, an unsorted
  // or repeated one -- is found by binary search. Repeated entries merge by
  // maximum.
  size_t j = 0;
  for (size_t i = 0; i < k; ++i) {
    const auto [sender, seq] = received[i];
    if (j >= n || members[j] != sender) {
      j = static_cast<size_t>(
          std::lower_bound(members.begin(), members.end(), sender) -
          members.begin());
      if (j >= n || members[j] != sender) continue;
    }
    if (seq > acks_[row + j]) raise_ack(q, j, seq);
    ++j;
  }
  engine().observe(p, lamport);
}

void OrderingBuffer::raise_ack(size_t q, size_t s, uint64_t seq) {
  uint64_t& cell = acks_[q * view_.size() + s];
  const uint64_t was = cell;
  cell = seq;
  if (static_cast<int>(q) == self_rank_) return;  // not in the minima
  // Every row of the column sits at or above its minimum, so offsets from
  // it cannot wrap.
  uint64_t& lo = col_min_[s];
  uint32_t* ring = &col_ring_[s * kAckRing];
  if (was - lo < kAckRing) --ring[was % kAckRing]; else --col_far_[s];
  if (seq - lo < kAckRing) ++ring[seq % kAckRing]; else ++col_far_[s];
  if (was != lo || ring[lo % kAckRing] != 0) return;
  // The last row at the minimum rose: the next occupied slot is the new
  // minimum. Moving the window would also take in rows counted past it, so
  // a column that has any is recounted instead.
  if (col_far_[s] == 0) {
    for (uint64_t d = 1; d < kAckRing; ++d) {
      if (ring[(lo + d) % kAckRing] != 0) {
        lo += d;
        return;
      }
    }
  }
  rebuild_column(s);
}

void OrderingBuffer::rebuild_column(size_t s) {
  const size_t n = view_.size();
  uint64_t lo = UINT64_MAX;
  for (size_t q = 0; q < n; ++q)
    if (static_cast<int>(q) != self_rank_) lo = std::min(lo, acks_[q * n + s]);
  col_min_[s] = lo;
  uint32_t* ring = &col_ring_[s * kAckRing];
  std::fill_n(ring, kAckRing, 0);
  col_far_[s] = 0;
  for (size_t q = 0; q < n; ++q) {
    if (static_cast<int>(q) == self_rank_) continue;
    const uint64_t v = acks_[q * n + s];
    if (v - lo < kAckRing) ++ring[v % kAckRing]; else ++col_far_[s];
  }
}

void OrderingBuffer::rebuild_columns() {
  // rebuild_column for every column, in two row-major passes.
  const size_t n = view_.size();
  col_min_.assign(n, UINT64_MAX);
  col_ring_.assign(n * kAckRing, 0);
  col_far_.assign(n, 0);
  for (size_t q = 0; q < n; ++q) {
    if (static_cast<int>(q) == self_rank_) continue;
    for (size_t s = 0; s < n; ++s)
      col_min_[s] = std::min(col_min_[s], acks_[q * n + s]);
  }
  for (size_t q = 0; q < n; ++q) {
    if (static_cast<int>(q) == self_rank_) continue;
    for (size_t s = 0; s < n; ++s) {
      const uint64_t v = acks_[q * n + s];
      if (v - col_min_[s] < kAckRing) {
        ++col_ring_[s * kAckRing + v % kAckRing];
      } else {
        ++col_far_[s];
      }
    }
  }
}

void OrderingBuffer::drop_ack(size_t q, size_t s) {
  const uint64_t was = std::exchange(acks_[q * view_.size() + s], 0);
  if (was == 0 || static_cast<int>(q) == self_rank_) return;
  // Below a nonzero minimum the window moves: recount the column. At a
  // minimum of 0 the row just moves to slot 0.
  if (col_min_[s] != 0) return rebuild_column(s);
  uint32_t* ring = &col_ring_[s * kAckRing];
  if (was < kAckRing) --ring[was % kAckRing]; else --col_far_[s];
  ++ring[0];
}

std::vector<DataMsg> OrderingBuffer::drain() {
  // The whole ready run, strictly in the engine's total order.
  std::vector<DataMsg> out;
  while (const DataMsg* next = engine().next_deliverable()) {
    engine().on_delivered(*next);
    out.push_back(take_pending(pending_.find(order_key(*next))));
  }
  return out;
}

std::vector<DataMsg> OrderingBuffer::flush_all() {
  std::vector<DataMsg> out;
  out.reserve(pending_.size());
  for (auto& [key, m] : pending_) {
    (void)key;
    out.push_back(std::move(m));
  }
  pending_.clear();
  pending_ix_.clear();
  out_of_order_.clear();  // unfillable remnants, dropped identically everywhere
  engine().order_flush(out);
  for (const DataMsg& m : out) engine().on_delivered(m);
  return out;
}

std::vector<DataMsg> OrderingBuffer::held_messages() const {
  std::vector<DataMsg> out;
  out.reserve(pending_.size() + out_of_order_.size());
  for (const auto& [key, m] : pending_) {
    (void)key;
    out.push_back(m);
  }
  for (const auto& [id, m] : out_of_order_) {
    (void)id;
    out.push_back(m);
  }
  return out;
}

uint64_t OrderingBuffer::received_upto(MemberId sender) const {
  int r = view_.rank(sender);
  if (r >= 0) return received_[slot_[r]].second;
  auto it = std::lower_bound(received_.begin(), received_.end(),
                             std::make_pair(sender, uint64_t{0}));
  return it != received_.end() && it->first == sender ? it->second : 0;
}

const DataMsg* OrderingBuffer::find_pending(const MsgId& id) const {
  auto ix = pending_ix_.find(id);
  if (ix == pending_ix_.end()) return nullptr;
  auto it = pending_.find(ix->second);
  return it == pending_.end() ? nullptr : &it->second;
}

uint64_t OrderingBuffer::peer_sent_upto(MemberId q) const {
  int r = view_.rank(q);
  return r < 0 ? 0 : sent_upto_[r];
}

uint64_t OrderingBuffer::peer_received(MemberId q, MemberId sender) const {
  int r = view_.rank(q);
  int s = view_.rank(sender);
  return r < 0 || s < 0 ? 0 : acks_[static_cast<size_t>(r) * view_.size() + s];
}

std::vector<MsgId> OrderingBuffer::gaps() const {
  std::vector<MsgId> out;
  if (behind_ == 0) return out;
  for (size_t r = 0; r < view_.size(); ++r) {
    uint64_t have = received_[slot_[r]].second;
    if (sent_upto_[r] <= have) continue;
    MemberId peer = view_.members[r];
    // A claim far past what we hold is asked for a window at a time: the
    // claim comes off the wire, and one flipped bit may put it near 2^64.
    const uint64_t n = std::min(sent_upto_[r] - have, kNackWindow);
    for (uint64_t k = 1; k <= n; ++k) {
      if (!out_of_order_.count(MsgId{peer, have + k}))
        out.push_back({peer, have + k});
    }
  }
  return out;
}

bool OrderingBuffer::missing_from_peers() const {
  return behind_ > (behind(self_rank_) ? 1u : 0u);
}

void OrderingBuffer::set_stream_position(MemberId sender, uint64_t seq) {
  const int r = view_.rank(sender);
  const bool was = behind(r);
  watermark(sender) = seq;
  // Drop anything buffered at or below the new position; promote the rest.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.id.sender == sender && it->second.id.seq <= seq) {
      take_pending(it++);
    } else {
      ++it;
    }
  }
  for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
    if (it->first.sender == sender && it->first.seq <= seq) {
      it = out_of_order_.erase(it);
    } else {
      ++it;
    }
  }
  promote_out_of_order(sender);
  recount(r, was);
}

void OrderingBuffer::reset_peer(MemberId m) {
  const int r = view_.rank(m);
  if (r < 0) return;
  // m's row and sent watermark, and every peer's claims about m's old
  // stream (its column): they describe messages of the dead incarnation,
  // and would otherwise count toward stable_upto for the fresh stream.
  const size_t n = view_.size();
  const bool was = behind(r);
  sent_upto_[r] = 0;
  recount(r, was);
  for (size_t s = 0; s < n; ++s) drop_ack(static_cast<size_t>(r), s);
  for (size_t q = 0; q < n; ++q) drop_ack(q, static_cast<size_t>(r));
}

void OrderingBuffer::clear_all() {
  view_ = View{};
  pending_.clear();
  pending_ix_.clear();
  out_of_order_.clear();
  received_.clear();
  slot_.clear();
  acks_.clear();
  sent_upto_.clear();
  col_min_.clear();
  col_ring_.clear();
  col_far_.clear();
  behind_ = 0;
  self_rank_ = -1;
  if (fallback_) fallback_->clear();
}

uint64_t OrderingBuffer::stable_upto(MemberId sender) const {
  // Our own watermark against the minimum of the sender's column over every
  // other member's row.
  const uint64_t have = received_upto(sender);
  const int s = view_.rank(sender);
  if (s >= 0) return std::min(have, col_min_[s]);
  // No member claims anything of a non-member's stream.
  const bool alone = view_.size() == (self_rank_ >= 0 ? 1u : 0u);
  return alone ? have : 0;
}

}  // namespace gcs
