#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sim {

Simulation::Simulation(uint64_t seed) : rng_(seed) {}
Simulation::~Simulation() = default;

uint32_t Simulation::alloc_slot() {
  if (free_head_ != kNilSlot) {
    uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    return slot;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void Simulation::free_slot(uint32_t slot) {
  Slot& s = pool_[slot];
  s.fn.reset();
  s.armed = false;
  s.cancelled = false;
  ++s.gen;  // invalidate every id handed out for the previous occupancy
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulation::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

void Simulation::heap_pop_root() {
  HeapEntry back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down_hole(0, back);
}

void Simulation::sift_up(size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (e.key >= heap_[parent].key) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulation::sift_down_hole(size_t i, HeapEntry displaced) {
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 4 * i + 1;
    if (child >= n) break;
    size_t last = child + 4 < n ? child + 4 : n;
    size_t best = child;
    HeapKey best_key = heap_[child].key;
    for (size_t j = child + 1; j < last; ++j) {
      if (heap_[j].key < best_key) {
        best = j;
        best_key = heap_[j].key;
      }
    }
    heap_[i] = heap_[best];
    i = best;
  }
  // The hole is now a leaf; bubble the displaced element up to its place.
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (displaced.key >= heap_[parent].key) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = displaced;
}

EventId Simulation::enqueue(Time at, uint64_t seq, EventFn&& fn) {
  uint32_t slot = alloc_slot();
  Slot& s = pool_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  s.cancelled = false;
  heap_push(HeapEntry{make_key(at, seq), slot});
  return make_id(slot, s.gen);
}

EventId Simulation::schedule(Duration delay, EventFn fn) {
  if (delay.us < 0) throw std::invalid_argument("schedule: negative delay");
  return enqueue(now_ + delay, reserve_sequence(), std::move(fn));
}

EventId Simulation::schedule_at(Time at, EventFn fn) {
  if (at < now_) throw std::invalid_argument("schedule_at: time in the past");
  return enqueue(at, reserve_sequence(), std::move(fn));
}

void Simulation::schedule_reserved(Time at, uint64_t seq, EventFn fn) {
  if (at < now_)
    throw std::invalid_argument("schedule_reserved: time in the past");
  enqueue(at, seq, std::move(fn));
}

void Simulation::cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id);
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= pool_.size()) return;
  Slot& s = pool_[slot];
  if (!s.armed || s.gen != gen || s.cancelled) return;
  s.cancelled = true;
  s.fn.reset();  // release captures now; the heap entry dies lazily
  --live_;
  ++cancelled_;
  if (cancelled_ > 64 && cancelled_ > heap_.size() - cancelled_) compact();
}

void Simulation::compact() {
  size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (pool_[e.slot].cancelled) {
      free_slot(e.slot);
    } else {
      heap_[kept++] = e;
    }
  }
  heap_.resize(kept);
  cancelled_ = 0;
  // Keys are unique, so a sorted array is a valid heap and events pop in
  // exactly the order they would have.
  std::sort(heap_.begin(), heap_.end(),
            [](const HeapEntry& a, const HeapEntry& b) {
              return a.key < b.key;
            });
}

bool Simulation::event_pending(EventId id) const {
  uint32_t slot = static_cast<uint32_t>(id);
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= pool_.size()) return false;
  const Slot& s = pool_[slot];
  return s.armed && s.gen == gen && !s.cancelled;
}

bool Simulation::run_next(Time limit) {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    Slot& s = pool_[top.slot];
    if (s.cancelled) {
      heap_pop_root();
      free_slot(top.slot);
      --cancelled_;
      continue;
    }
    const Time at = key_time(top.key);
    if (at > limit) return false;
    heap_pop_root();
    assert(at >= now_);
    now_ = at;
    ++executed_;
    --live_;
    EventFn fn = std::move(s.fn);
    free_slot(top.slot);
    fn();
    return true;
  }
  return false;
}

bool Simulation::step() { return run_next(kTimeInfinity); }

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

Time Simulation::next_event_time() {
  while (!heap_.empty() && pool_[heap_.front().slot].cancelled) {
    uint32_t slot = heap_.front().slot;
    heap_pop_root();
    free_slot(slot);
    --cancelled_;
  }
  return heap_.empty() ? kTimeInfinity : key_time(heap_.front().key);
}

void Simulation::run_until(Time t) {
  stopped_ = false;
  while (!stopped_ && run_next(t)) {
  }
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace sim
