// Structured trace layer: compact fixed-size records in a growable ring.
//
// The simulator's only trace: a record is (timestamp, host, interned
// category id, phase, two integer args) -- no strings are built at record
// time, and once the ring reaches its capacity the record path performs
// zero heap allocations (older records are overwritten, newest-wins, like a
// flight recorder).
//
// Spans: either record begin()/end() pairs, or remember the start time at
// the call site and emit one complete() record when the operation finishes.
// complete() is what the instrumentation uses -- it cannot leave an
// unbalanced span when a host crashes mid-operation.
//
// Timestamps are raw simulated-time microseconds (sim::Time::us); the
// telemetry layer deliberately sits below the simulator and takes plain
// integers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace telemetry {

class TraceBuffer {
 public:
  enum class Phase : uint8_t { kInstant = 0, kBegin, kEnd, kComplete };

  struct Record {
    int64_t ts_us = 0;
    int64_t dur_us = 0;  ///< kComplete only
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    uint32_t host = 0;
    uint16_t cat = 0;
    Phase phase = Phase::kInstant;
  };

  /// Intern a category name; stable id for the buffer's lifetime.
  uint16_t intern(std::string_view name);
  const std::string& category_name(uint16_t cat) const {
    return categories_[cat];
  }
  size_t category_count() const { return categories_.size(); }

  /// Ring capacity in records (default 64K). Resets the buffer.
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  /// Reserve a dedicated sub-ring of `capacity` records for one category.
  /// Its records stop competing with the shared ring, so a flood of
  /// high-rate categories (data-path events in a long campaign) cannot
  /// evict a rare stream's early records (the first view changes). Capacity
  /// 0 routes the category back to the shared ring. Resets the sub-ring.
  void set_category_capacity(uint16_t cat, size_t capacity);
  size_t category_capacity(uint16_t cat) const {
    return cat < sub_.size() ? sub_[cat].cap : 0;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void instant(int64_t ts_us, uint32_t host, uint16_t cat, uint64_t arg0 = 0,
               uint64_t arg1 = 0) {
    push({ts_us, 0, arg0, arg1, host, cat, Phase::kInstant});
  }
  void begin(int64_t ts_us, uint32_t host, uint16_t cat, uint64_t arg0 = 0,
             uint64_t arg1 = 0) {
    push({ts_us, 0, arg0, arg1, host, cat, Phase::kBegin});
  }
  void end(int64_t ts_us, uint32_t host, uint16_t cat, uint64_t arg0 = 0,
           uint64_t arg1 = 0) {
    push({ts_us, 0, arg0, arg1, host, cat, Phase::kEnd});
  }
  void complete(int64_t start_us, int64_t end_us, uint32_t host, uint16_t cat,
                uint64_t arg0 = 0, uint64_t arg1 = 0) {
    push({start_us, end_us - start_us, arg0, arg1, host, cat,
          Phase::kComplete});
  }

  /// Records currently held across the shared ring and every sub-ring.
  size_t size() const {
    size_t n = buf_.size();
    for (const SubRing& s : sub_) n += s.buf.size();
    return n;
  }
  /// Total records ever pushed.
  uint64_t recorded() const { return recorded_; }
  /// Records overwritten after a ring filled.
  uint64_t dropped() const {
    return recorded_ - static_cast<uint64_t>(size());
  }
  /// Records of one category overwritten after the ring filled. A long
  /// campaign that truncates must say WHICH stream lost its early events,
  /// not just how many records went missing overall.
  uint64_t dropped(uint16_t cat) const {
    return cat < dropped_by_cat_.size() ? dropped_by_cat_[cat] : 0;
  }

  /// Visit held records in timestamp order (k-way merge of the shared ring
  /// and every sub-ring; each ring is individually time-ordered because
  /// simulated time is monotonic).
  template <typename F>
  void for_each(F&& f) const {
    if (sub_.empty()) {  // common case: no quotas configured
      for (size_t i = head_; i < buf_.size(); ++i) f(buf_[i]);
      for (size_t i = 0; i < head_; ++i) f(buf_[i]);
      return;
    }
    struct Cursor {
      const std::vector<Record>* buf;
      size_t head;
      size_t pos = 0;  ///< records consumed, oldest first
    };
    std::vector<Cursor> cursors;
    cursors.push_back({&buf_, head_});
    for (const SubRing& s : sub_)
      if (!s.buf.empty()) cursors.push_back({&s.buf, s.head});
    auto at = [](const Cursor& c) -> const Record& {
      size_t i = c.head + c.pos;
      if (i >= c.buf->size()) i -= c.buf->size();
      return (*c.buf)[i];
    };
    for (;;) {
      const Record* best = nullptr;
      size_t best_ix = 0;
      for (size_t i = 0; i < cursors.size(); ++i) {
        if (cursors[i].pos >= cursors[i].buf->size()) continue;
        const Record& r = at(cursors[i]);
        if (best == nullptr || r.ts_us < best->ts_us) {
          best = &r;
          best_ix = i;
        }
      }
      if (best == nullptr) break;
      f(*best);
      ++cursors[best_ix].pos;
    }
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_by_cat_.assign(dropped_by_cat_.size(), 0);
    for (SubRing& s : sub_) {
      s.buf.clear();
      s.head = 0;
    }
  }

 private:
  /// Dedicated ring for one quota'd category.
  struct SubRing {
    std::vector<Record> buf;
    size_t head = 0;  ///< oldest record once wrapped
    size_t cap = 0;   ///< 0 = no quota (shared ring)
  };

  void push(const Record& r) {
    if (!enabled_) return;
    ++recorded_;
    if (r.cat < sub_.size() && sub_[r.cat].cap > 0) {
      SubRing& s = sub_[r.cat];
      if (s.buf.size() < s.cap) {
        s.buf.push_back(r);
        return;
      }
      if (r.cat < dropped_by_cat_.size()) ++dropped_by_cat_[r.cat];
      s.buf[s.head] = r;
      s.head = s.head + 1 == s.cap ? 0 : s.head + 1;
      return;
    }
    if (buf_.size() < capacity_) {
      buf_.push_back(r);  // growth phase; amortized, pre-capacity only
      return;
    }
    // Steady state: overwrite oldest, no allocation (dropped_by_cat_ was
    // sized at intern time, so the increment is a plain array store; a
    // never-interned id only shows up in the aggregate dropped() count).
    uint16_t old_cat = buf_[head_].cat;
    if (old_cat < dropped_by_cat_.size()) ++dropped_by_cat_[old_cat];
    buf_[head_] = r;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }

  std::vector<Record> buf_;
  size_t head_ = 0;  ///< oldest record once the ring has wrapped
  size_t capacity_ = 1 << 16;
  uint64_t recorded_ = 0;
  bool enabled_ = true;
  std::vector<std::string> categories_;
  std::map<std::string, uint16_t, std::less<>> category_ix_;
  std::vector<uint64_t> dropped_by_cat_;  ///< indexed by category id
  std::vector<SubRing> sub_;              ///< indexed by category id
};

}  // namespace telemetry
