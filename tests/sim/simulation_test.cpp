#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace {

using sim::Simulation;

TEST(Simulation, StartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now().us, 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, EventsFireAtScheduledTimes) {
  Simulation s;
  std::vector<int64_t> fired;
  s.schedule(sim::msec(5), [&] { fired.push_back(s.now().us); });
  s.schedule(sim::msec(2), [&] { fired.push_back(s.now().us); });
  s.run();
  EXPECT_EQ(fired, (std::vector<int64_t>{2000, 5000}));
  EXPECT_EQ(s.now().us, 5000);
}

TEST(Simulation, SameTimeFifoOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule(sim::msec(1), [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, NestedScheduling) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule(sim::msec(1), recurse);
  };
  s.schedule(sim::msec(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now().us, 5000);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  sim::EventId id = s.schedule(sim::msec(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelIsIdempotentAndSafeAfterFire) {
  Simulation s;
  sim::EventId id = s.schedule(sim::msec(1), [] {});
  s.run();
  s.cancel(id);  // already fired: no-op
  s.cancel(999999);  // never existed: no-op
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation s;
  s.run_until(sim::Time{100000});
  EXPECT_EQ(s.now().us, 100000);
}

TEST(Simulation, RunUntilLeavesLaterEventsPending) {
  Simulation s;
  bool early = false, late = false;
  s.schedule(sim::msec(10), [&] { early = true; });
  s.schedule(sim::msec(100), [&] { late = true; });
  s.run_for(sim::msec(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Simulation, StopAbortsRun) {
  Simulation s;
  int count = 0;
  for (int i = 0; i < 10; ++i)
    s.schedule(sim::msec(i), [&] {
      if (++count == 3) s.stop();
    });
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulation, RejectsNegativeDelayAndPastTime) {
  Simulation s;
  EXPECT_THROW(s.schedule(sim::Duration{-1}, [] {}), std::invalid_argument);
  s.run_until(sim::Time{1000});
  EXPECT_THROW(s.schedule_at(sim::Time{500}, [] {}), std::invalid_argument);
}

TEST(Simulation, EventCountTracked) {
  Simulation s;
  for (int i = 0; i < 4; ++i) s.schedule(sim::msec(1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 4u);
}

// -- cancelled-entry compaction ---------------------------------------------

/// The reference for one scheduled event: what the queue must do with it.
struct Expected {
  int64_t at = 0;
  sim::EventId id = sim::kInvalidEvent;
  bool cancelled = false;
  bool fired = false;
};

/// Timeouts that are mostly cancelled, under live traffic, with cancels of
/// fired, cancelled and recycled ids mixed in. The heap stays within twice
/// the live events, and everything observable matches the reference: fire
/// order by (time, scheduling order), events_executed(), pending_events()
/// and event_pending() of every id ever issued.
TEST(SimulationCompaction, CancelChurnKeepsHeapBoundedAndOrderExact) {
  Simulation s;
  std::mt19937_64 rng(7);
  std::vector<Expected> evs;
  std::vector<size_t> fired;
  size_t live = 0;
  auto schedule = [&](int64_t delay) {
    const size_t i = evs.size();
    evs.push_back({s.now().us + delay});
    evs[i].id = s.schedule(sim::Duration{delay}, [&, i] {
      evs[i].fired = true;
      fired.push_back(i);
      --live;
    });
    ++live;
  };
  auto pick = [&](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  bool compacted = false;
  auto cancel = [&](size_t i) {
    Expected& e = evs[i];
    const size_t before = s.heap_size();
    s.cancel(e.id);
    if (!e.fired && !e.cancelled) {
      e.cancelled = true;
      --live;
    }
    compacted |= s.heap_size() + 1 < before;
    ASSERT_EQ(s.pending_events(), live);
    ASSERT_LE(s.heap_size(), 2 * s.pending_events() + 64);
  };
  for (int round = 0; round < 3000; ++round) {
    // Four RPC timeouts and one piece of live traffic per round; the
    // replies to recent calls cancel their timeouts, and an arbitrary id
    // (fired, cancelled or recycled by now) is cancelled too.
    for (int k = 0; k < 4; ++k) schedule(20000 + pick(40000));
    schedule(pick(2000));
    const size_t recent = std::min<size_t>(evs.size(), 25);
    for (int k = 0; k < 4; ++k)
      cancel(evs.size() - 1 - static_cast<size_t>(pick(recent)));
    cancel(static_cast<size_t>(pick(evs.size())));
    s.run_for(sim::usec(1000));
    ASSERT_EQ(s.pending_events(), live);
    if (round % 100 == 0) {
      for (const Expected& e : evs)
        ASSERT_EQ(s.event_pending(e.id), !e.fired && !e.cancelled);
    }
  }
  EXPECT_TRUE(compacted) << "the churn never triggered a compaction";
  s.run();
  std::vector<size_t> want;
  for (size_t i = 0; i < evs.size(); ++i)
    if (!evs[i].cancelled) want.push_back(i);
  std::stable_sort(want.begin(), want.end(), [&](size_t a, size_t b) {
    return evs[a].at < evs[b].at;
  });
  EXPECT_EQ(fired, want);
  EXPECT_EQ(s.events_executed(), want.size());
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.heap_size(), 0u);
}

TEST(SimulationCompaction, StaleIdsStayDeadAfterSlotsAreRecycled) {
  Simulation s;
  std::vector<int> order;
  std::vector<sim::EventId> old_ids;
  for (int i = 0; i < 200; ++i)
    old_ids.push_back(
        s.schedule(sim::seconds(1), [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 150; ++i) {
    s.cancel(old_ids[i]);
    // The 101st cancel makes cancelled entries outnumber live ones.
    EXPECT_EQ(s.heap_size(), i < 100 ? 200u : 200u - 101u) << i;
  }
  EXPECT_EQ(s.pending_events(), 50u);

  std::vector<sim::EventId> new_ids;
  for (int i = 200; i < 350; ++i)
    new_ids.push_back(
        s.schedule(sim::msec(500), [&order, i] { order.push_back(i); }));
  auto slot = [](sim::EventId id) { return static_cast<uint32_t>(id); };
  size_t recycled = 0;
  for (sim::EventId n : new_ids)
    for (int i = 0; i < 150; ++i) recycled += slot(n) == slot(old_ids[i]);
  EXPECT_GT(recycled, 0u) << "no freed slot was reused";

  for (int i = 0; i < 150; ++i) {
    EXPECT_FALSE(s.event_pending(old_ids[i]));
    s.cancel(old_ids[i]);  // stale: must not touch the slot's new event
  }
  for (sim::EventId n : new_ids) EXPECT_TRUE(s.event_pending(n));
  EXPECT_EQ(s.pending_events(), 200u);
  s.run();
  std::vector<int> want;
  for (int i = 200; i < 350; ++i) want.push_back(i);
  for (int i = 150; i < 200; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
  EXPECT_EQ(s.events_executed(), 200u);
}

TEST(SimTime, ArithmeticAndComparisons) {
  sim::Time t{1000};
  sim::Duration d = sim::msec(2);
  EXPECT_EQ((t + d).us, 3000);
  EXPECT_EQ(((t + d) - t).us, 2000);
  EXPECT_LT(t, t + d);
  EXPECT_EQ(sim::seconds(1).us, 1000000);
  EXPECT_EQ(sim::seconds_f(0.5).us, 500000);
  EXPECT_EQ(sim::minutes(2).us, 120000000);
  EXPECT_EQ(sim::hours(1).us, 3600000000LL);
  EXPECT_DOUBLE_EQ(sim::msec(1500).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(sim::msec(1500).millis(), 1500.0);
  EXPECT_EQ((sim::msec(10) * 3).us, 30000);
  EXPECT_EQ((sim::msec(10) / 2).us, 5000);
}

}  // namespace
