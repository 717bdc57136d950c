#include "gcs/ordering.h"

#include <algorithm>

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
  // received/delivered counters persist across views: sequence numbers are
  // global per sender, and a new view's first message continues the stream.
  for (MemberId m : view_.members) {
    auto it = std::lower_bound(received_.begin(), received_.end(),
                               std::make_pair(m, uint64_t{0}));
    if (it == received_.end() || it->first != m) received_.emplace(it, m, 0);
    delivered_.try_emplace(m, 0);
  }
  index_watermarks();
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
    upto = m.id.seq;
    pending_.emplace(order_key(m), m);
    pending_ix_.emplace(m.id, order_key(m));
    promote_out_of_order(m.id.sender);
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

void OrderingBuffer::erase_pending(std::map<OrderKey, DataMsg>::iterator it) {
  pending_ix_.erase(it->second.id);
  pending_.erase(it);
}

void OrderingBuffer::observe(MemberId p, uint64_t lamport, uint64_t sent_upto,
                             const CutVector& received) {
  // Only members' claims about members' streams count (a cut also carries
  // entries for departed senders; the wire may carry anything).
  const int q = view_.rank(p);
  if (q < 0) return;
  sent_upto_[q] = std::max(sent_upto_[q], sent_upto);
  // One pass merging the sorted cut with the sorted member list into q's
  // row. An entry below its predecessor (an unsorted cut) restarts the
  // member scan by binary search; repeated entries merge by maximum.
  const std::vector<MemberId>& members = view_.members;
  const size_t n = members.size();
  uint64_t* row = &acks_[static_cast<size_t>(q) * n];
  size_t j = 0;
  MemberId prev = 0;
  for (const auto& [sender, seq] : received) {
    if (sender < prev)
      j = static_cast<size_t>(
          std::lower_bound(members.begin(), members.end(), sender) -
          members.begin());
    prev = sender;
    while (j < n && members[j] < sender) ++j;
    if (j < n && members[j] == sender) row[j] = std::max(row[j], seq);
  }
  engine().observe(p, lamport);
}

bool OrderingBuffer::causal_condition(const DataMsg& m) const {
  for (const auto& [q, count] : m.vclock) {
    if (q == m.id.sender) continue;  // FIFO from the sender is the gate
    auto it = delivered_.find(q);
    uint64_t have = it == delivered_.end() ? 0 : it->second;
    if (have < count) return false;
  }
  return true;
}

std::vector<DataMsg> OrderingBuffer::drain() {
  std::vector<DataMsg> out;
  last_drain_passes_ = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    ++last_drain_passes_;
    // FIFO/CAUSAL messages deliver independently of the total order.
    for (auto it = pending_.begin(); it != pending_.end();) {
      const DataMsg& m = it->second;
      bool ready = false;
      if (m.level == Delivery::kFifo) {
        ready = true;
      } else if (m.level == Delivery::kCausal) {
        ready = causal_condition(m);
      }
      if (ready) {
        ++delivered_[m.id.sender];
        out.push_back(m);
        auto victim = it++;
        erase_pending(victim);
        progress = true;
      } else {
        ++it;
      }
    }
    // AGREED/SAFE deliver strictly in the engine's total order. The whole
    // ready run goes in one inner loop -- one message per outer pass made a
    // run of R stamped messages rescan all of pending_ R times. Per-sender
    // delivered counts accumulate locally and land once per run, not per
    // message: no engine delivery condition reads them (all-ack reads
    // lamports and watermarks, token reads its own delivered_global_), and
    // the CAUSAL scan that does runs again on the next outer pass.
    std::map<MemberId, uint64_t> run_counts;
    while (const DataMsg* next = engine().next_deliverable()) {
      DataMsg m = *next;  // copy before the erase invalidates the pointer
      engine().on_delivered(m);
      ++run_counts[m.id.sender];
      erase_pending(pending_.find(order_key(m)));
      out.push_back(std::move(m));
      progress = true;
    }
    for (const auto& [sender, n] : run_counts) delivered_[sender] += n;
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
  for (const DataMsg& m : out) {
    ++delivered_[m.id.sender];
    engine().on_delivered(m);
  }
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

std::map<MemberId, uint64_t> OrderingBuffer::delivered_vector() const {
  return delivered_;
}

uint64_t OrderingBuffer::delivered_count(MemberId sender) const {
  auto it = delivered_.find(sender);
  return it == delivered_.end() ? 0 : it->second;
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
  for (size_t r = 0; r < view_.size(); ++r) {
    uint64_t have = received_[slot_[r]].second;
    if (sent_upto_[r] <= have) continue;
    MemberId peer = view_.members[r];
    for (uint64_t seq = have + 1; seq <= sent_upto_[r]; ++seq) {
      if (!out_of_order_.count(MsgId{peer, seq})) out.push_back({peer, seq});
    }
  }
  return out;
}

bool OrderingBuffer::missing_from_peers() const {
  for (size_t r = 0; r < view_.size(); ++r) {
    if (static_cast<int>(r) == self_rank_) continue;
    if (received_[slot_[r]].second < sent_upto_[r]) return true;
  }
  return false;
}

void OrderingBuffer::set_stream_position(MemberId sender, uint64_t seq) {
  watermark(sender) = seq;
  delivered_[sender] = seq;
  // Drop anything buffered at or below the new position; promote the rest.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.id.sender == sender && it->second.id.seq <= seq) {
      auto victim = it++;
      erase_pending(victim);
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
}

void OrderingBuffer::reset_peer(MemberId m) {
  const int r = view_.rank(m);
  if (r < 0) return;
  // m's row and sent watermark, and every peer's claims about m's old
  // stream (its column): they describe messages of the dead incarnation,
  // and would otherwise count toward stable_upto and SAFE for the fresh
  // stream.
  const size_t n = view_.size();
  sent_upto_[r] = 0;
  std::fill_n(&acks_[static_cast<size_t>(r) * n], n, 0);
  for (size_t q = 0; q < n; ++q) acks_[q * n + r] = 0;
}

void OrderingBuffer::clear_all() {
  view_ = View{};
  pending_.clear();
  pending_ix_.clear();
  out_of_order_.clear();
  received_.clear();
  slot_.clear();
  delivered_.clear();
  acks_.clear();
  sent_upto_.clear();
  self_rank_ = -1;
  if (fallback_) fallback_->clear();
}

uint64_t OrderingBuffer::stable_upto(MemberId sender) const {
  // The minimum of the sender's column over every other member's row.
  uint64_t lo = received_upto(sender);
  const size_t n = view_.size();
  const int s = view_.rank(sender);
  for (size_t q = 0; q < n; ++q) {
    if (static_cast<int>(q) == self_rank_) continue;
    lo = std::min(lo, s < 0 ? 0 : acks_[q * n + s]);
  }
  return lo;
}

}  // namespace gcs
