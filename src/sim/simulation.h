// Discrete-event simulation engine.
//
// A Simulation owns a virtual clock and an event queue. Events scheduled for
// the same instant fire in scheduling order (FIFO tie-break), which keeps
// every run bit-reproducible for a given seed and workload.
//
// The event core is allocation-free in steady state: events live in a slab
// pool threaded with a free list, the ready queue is a 4-ary min-heap of
// (time, sequence) keys over pool slots, and callbacks are sim::EventFn
// (64-byte inline storage). cancel() is O(1) lazy cancellation -- it marks
// the pool slot and drops the callback; the heap entry is discarded when it
// surfaces, or earlier, when cancelled entries come to outnumber live ones
// (most are RPC timeouts whose reply came): then they are all filtered out
// at once, so the heap stays within about twice the live events. Event ids
// encode (slot, generation) so cancelling an already fired or never-issued
// id is always a safe no-op.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"
#include "telemetry/hub.h"
#include "util/rng.h"

namespace sim {

using EventId = uint64_t;
constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }
  jutil::Rng& rng() { return rng_; }

  /// Per-simulation telemetry: metrics registry + structured trace ring.
  /// Observation only -- nothing in it feeds back into event ordering, so
  /// instrumented and uninstrumented runs are bit-identical.
  telemetry::Hub& telemetry() { return telemetry_; }
  const telemetry::Hub& telemetry() const { return telemetry_; }

  /// Schedule `fn` to run `delay` from now (delay must be >= 0).
  EventId schedule(Duration delay, EventFn fn);

  /// Schedule `fn` at an absolute instant (>= now()).
  EventId schedule_at(Time at, EventFn fn);

  /// Reserve the scheduling sequence of an event whose callback is handed
  /// over later with schedule_reserved(): it then sorts among same-instant
  /// events as if it had been scheduled now. The reserved event counts in
  /// pending_events() from now on; each reservation must be scheduled
  /// exactly once. sim::Host queues CPU work this way (DESIGN.md section 6).
  uint64_t reserve_sequence() {
    ++live_;
    return next_seq_++;
  }

  /// Schedule `fn` at `at` (>= now()) under a sequence from
  /// reserve_sequence().
  void schedule_reserved(Time at, uint64_t seq, EventFn fn);

  /// Cancel a pending event. Safe to call for already-fired or cancelled ids.
  void cancel(EventId id);

  /// True while `id` names a scheduled, uncancelled, not-yet-fired event.
  bool event_pending(EventId id) const;

  /// Run the next event; false when the queue is empty or stop() was called.
  bool step();

  /// Run until the queue drains or stop() is called.
  void run();

  /// Run events with timestamp <= t, then set the clock to t.
  void run_until(Time t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Timestamp of the next live event, or kTimeInfinity when none is
  /// pending. Prunes cancelled corpses off the top of the heap as a side
  /// effect (they carry no information).
  Time next_event_time();

  /// Abort run()/run_until() after the current event completes.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Number of events executed so far (for tests and sanity limits).
  uint64_t events_executed() const { return executed_; }
  size_t pending_events() const { return live_; }
  /// Entries on the event heap, cancelled ones included (for tests).
  size_t heap_size() const { return heap_.size(); }

 private:
  static constexpr uint32_t kNilSlot = 0xffffffff;

  /// Pool slot: callback storage plus the generation tag that validates
  /// EventIds after the slot is recycled.
  struct Slot {
    EventFn fn;
    uint32_t gen = 1;
    uint32_t next_free = kNilSlot;
    bool armed = false;
    bool cancelled = false;
  };

  /// Heap key: (time, scheduling sequence) packed into one 128-bit integer
  /// so the FIFO tie-break is a single branchless compare. Simulated time is
  /// never negative, so the packing is order-preserving.
  using HeapKey = unsigned __int128;

  static HeapKey make_key(Time at, uint64_t seq) {
    return (static_cast<HeapKey>(static_cast<uint64_t>(at.us)) << 64) | seq;
  }
  static Time key_time(HeapKey key) {
    return Time{static_cast<int64_t>(static_cast<uint64_t>(key >> 64))};
  }

  struct HeapEntry {
    HeapKey key;
    uint32_t slot;
  };

  static EventId make_id(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  EventId enqueue(Time at, uint64_t seq, EventFn&& fn);
  /// Run the next live event if its time is <= `limit`. Cancelled corpses
  /// on top of the heap are discarded first, whatever their time.
  bool run_next(Time limit);
  uint32_t alloc_slot();
  void free_slot(uint32_t slot);
  void heap_push(HeapEntry entry);
  void heap_pop_root();
  void sift_up(size_t i);
  /// Pop-side rebalance: walk the hole at `i` down the min-child path to a
  /// leaf, then bubble `displaced` (the old back element) up from there.
  /// Cheaper than classic sift-down because the displaced element is almost
  /// always heavy and sinks back near the leaves anyway.
  void sift_down_hole(size_t i, HeapEntry displaced);
  /// Drop every cancelled entry from the heap and free its slot.
  void compact();

  Time now_{0};
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  bool stopped_ = false;
  size_t live_ = 0;  ///< scheduled, uncancelled, not yet fired
  size_t cancelled_ = 0;  ///< cancelled entries still in heap_
  std::vector<Slot> pool_;
  uint32_t free_head_ = kNilSlot;
  std::vector<HeapEntry> heap_;
  jutil::Rng rng_;
  telemetry::Hub telemetry_;
};

}  // namespace sim
