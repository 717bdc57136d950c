#include "gcs/engine_allack.h"

#include <algorithm>

#include "gcs/ordering.h"

namespace gcs {

EngineOut AllAckEngine::reset(const View& view, MemberId self, int64_t) {
  // Re-rank like OrderingBuffer::reset: keep surviving peers' clocks (their
  // evidence is still valid), drop departed peers (their silence must not
  // block delivery), seed new members at zero.
  std::vector<uint64_t> heard(view.size(), 0);
  for (size_t i = 0; i < view.size(); ++i) {
    int old = view_.rank(view.members[i]);
    if (old >= 0) heard[i] = heard_[old];
  }
  heard_ = std::move(heard);
  view_ = view;
  self_ = self;
  return {};
}

void AllAckEngine::clear() {
  view_ = View{};
  self_ = sim::kInvalidHost;
  heard_.clear();
}

void AllAckEngine::observe(MemberId p, uint64_t lamport) {
  int r = view_.rank(p);
  if (r >= 0) heard_[r] = std::max(heard_[r], lamport);
}

bool AllAckEngine::agreed_condition(const DataMsg& m) const {
  // No earlier-ordered message from any other member may still be missing.
  if (buffer_->missing_from_peers()) return false;
  for (size_t r = 0; r < view_.size(); ++r) {
    MemberId q = view_.members[r];
    // Our own clock is ahead of everything we buffered, and our own
    // messages are inserted synchronously -- nothing of ours is in flight
    // towards ourselves.
    if (q == self_) continue;
    // The sender's own timestamp on m proves it will never send anything
    // ordered before m; every other member must have been heard past m.
    if (heard_[r] <= m.lamport && q != m.id.sender) return false;
  }
  return true;
}

const DataMsg* AllAckEngine::next_deliverable() const {
  if (buffer_ == nullptr) return nullptr;
  // Messages deliver strictly in OrderKey order: only the lowest pending
  // one may go.
  const auto& pending = buffer_->pending();
  if (pending.empty()) return nullptr;
  const DataMsg& m = pending.begin()->second;
  return agreed_condition(m) ? &m : nullptr;
}

}  // namespace gcs
