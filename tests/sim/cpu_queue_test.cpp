// Order of CPU work on the per-host run queue (sim::Host::execute).
//
// A host keeps its unfinished work in a FIFO ring and puts only the head on
// the event heap, under the sequence reserved when the work was submitted.
// These tests pin down that the pop order, the event count and the pending
// count are exactly those of scheduling one event per job at submission.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/simulation.h"

namespace {

struct Fired {
  int64_t at_us;
  std::string label;
  bool operator==(const Fired&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fired& f) {
  return os << f.label << "@" << f.at_us;
}

class CpuQueueTest : public ::testing::Test {
 protected:
  CpuQueueTest() : sim_(1), net_(sim_, sim::NetworkConfig{}) {
    a_ = net_.add_host("a").id();
    b_ = net_.add_host("b").id();
    c_ = net_.add_host("c").id();
  }

  /// A callback that records its label and the time it ran.
  sim::EventFn note(std::string label) {
    return [this, label = std::move(label)] {
      fired_.push_back({sim_.now().us, label});
    };
  }

  void execute(sim::HostId host, sim::Duration cost, std::string label) {
    net_.host(host).execute(cost, note(std::move(label)));
  }

  sim::Simulation sim_;
  sim::Network net_;
  sim::HostId a_, b_, c_;
  std::vector<Fired> fired_;
};

TEST_F(CpuQueueTest, ReservedSequenceSortsAsIfScheduledAtReservation) {
  const uint64_t seq = sim_.reserve_sequence();
  EXPECT_EQ(sim_.pending_events(), 1u) << "a reservation is pending work";
  sim_.schedule(sim::usec(5), note("later"));
  sim_.schedule_reserved(sim::Time{5}, seq, note("reserved"));
  EXPECT_EQ(sim_.pending_events(), 2u);
  sim_.run();
  EXPECT_EQ(fired_, (std::vector<Fired>{{5, "reserved"}, {5, "later"}}));
  EXPECT_EQ(sim_.events_executed(), 2u);
}

TEST_F(CpuQueueTest, SameInstantWorkOnSeveralHostsRunsInSubmissionOrder) {
  // All of a1, b2, the plain event and c1 complete at 10 ms. b2 reaches the
  // heap only when b1 finishes at 5 ms, after the other three were
  // submitted; it must still run second, where it was submitted.
  execute(a_, sim::msec(10), "a1");
  execute(b_, sim::msec(5), "b1");
  execute(b_, sim::msec(5), "b2");
  sim_.schedule_at(sim::Time{10000}, note("event"));
  execute(c_, sim::msec(10), "c1");
  EXPECT_EQ(sim_.pending_events(), 5u);
  sim_.run();
  EXPECT_EQ(fired_, (std::vector<Fired>{{5000, "b1"},
                                        {10000, "a1"},
                                        {10000, "b2"},
                                        {10000, "event"},
                                        {10000, "c1"}}));
  EXPECT_EQ(sim_.events_executed(), 5u);
}

TEST_F(CpuQueueTest, ZeroCostWorkRunsNowInSubmissionOrder) {
  sim_.schedule(sim::usec(0), note("e1"));
  execute(a_, sim::usec(0), "z1");
  sim_.schedule(sim::usec(0), note("e2"));
  execute(a_, sim::usec(0), "z2");
  // Zero-cost work behind busy CPU time completes with that work.
  execute(b_, sim::msec(1), "busy");
  execute(b_, sim::usec(0), "z3");
  sim_.schedule_at(sim::Time{1000}, note("e3"));
  sim_.run();
  EXPECT_EQ(fired_, (std::vector<Fired>{{0, "e1"},
                                        {0, "z1"},
                                        {0, "e2"},
                                        {0, "z2"},
                                        {1000, "busy"},
                                        {1000, "z3"},
                                        {1000, "e3"}}));
}

TEST_F(CpuQueueTest, CrashedWorkNeverRunsButKeepsOneEventPerJob) {
  execute(a_, sim::msec(10), "a1");
  execute(a_, sim::msec(10), "a2");
  execute(a_, sim::msec(10), "a3");
  execute(b_, sim::msec(25), "b1");
  sim_.schedule_at(sim::Time{5000}, [this] { net_.crash_host(a_); });
  EXPECT_EQ(sim_.pending_events(), 5u);

  sim_.run_until(sim::Time{5000});
  EXPECT_EQ(sim_.events_executed(), 1u);
  EXPECT_EQ(sim_.pending_events(), 4u)
      << "each job of the dead queue is still one pending event";

  // The dead jobs fire as no-ops at their own times: 10 and 20 ms, then
  // b1 at 25 ms, then 30 ms.
  sim_.run_until(sim::Time{20000});
  EXPECT_EQ(sim_.events_executed(), 3u);
  EXPECT_EQ(sim_.pending_events(), 2u);
  sim_.run();
  EXPECT_EQ(sim_.events_executed(), 5u);
  EXPECT_EQ(sim_.pending_events(), 0u);
  EXPECT_EQ(fired_, (std::vector<Fired>{{25000, "b1"}}));
}

TEST_F(CpuQueueTest, RestartedQueueRunsAtItsOwnTimeBeforeTheDeadTail) {
  execute(a_, sim::msec(10), "old1");
  execute(a_, sim::msec(10), "old2");
  execute(a_, sim::msec(10), "old3");
  sim_.schedule_at(sim::Time{5000}, [this] { net_.crash_host(a_); });
  sim_.schedule_at(sim::Time{6000}, [this] {
    net_.restart_host(a_);
    execute(a_, sim::msec(1), "new1");
    execute(a_, sim::msec(10), "new2");
  });
  sim_.run();
  // new1 completes at 7 ms, before every dead job; new2 at 17 ms, between
  // the dead jobs at 10 and 20 ms.
  EXPECT_EQ(fired_, (std::vector<Fired>{{7000, "new1"}, {17000, "new2"}}));
  EXPECT_EQ(sim_.events_executed(), 7u) << "2 faults, 3 dead jobs, 2 new";
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(CpuQueueTest, WorkSubmittedFromRunningWorkQueuesBehindIt) {
  net_.host(a_).execute(sim::msec(1), [this] {
    fired_.push_back({sim_.now().us, "outer"});
    execute(a_, sim::usec(0), "inner");
  });
  execute(a_, sim::msec(1), "next");
  sim_.run();
  EXPECT_EQ(fired_, (std::vector<Fired>{
                        {1000, "outer"}, {2000, "next"}, {2000, "inner"}}));
}

}  // namespace
