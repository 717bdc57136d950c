// Sender flow-control window edge cases (satellite of the batching PR):
//
//   * window = 1 degenerates to lockstep -- at most one own AGREED multicast
//     in flight, every further send queues (counted as a stall) and is
//     released only by the previous one's delivery. Order is preserved.
//   * A receiver that never acks (partitioned, but not suspected thanks to a
//     huge suspect timeout) stalls the sender at the window instead of
//     letting it pump unbounded traffic into the group: the network sees at
//     most `window` data messages, the rest wait in the sender's queue.
#include <gtest/gtest.h>

#include "gcs/gcs_harness.h"

namespace {

using gcstest::GcsHarness;

TEST(FlowControl, WindowOneIsLockstep) {
  auto tweak = [](gcs::GroupConfig& cfg) { cfg.inflight_window = 1; };
  GcsHarness h(3, 1, tweak);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));

  constexpr int kSends = 5;
  for (int i = 0; i < kSends; ++i)
    h.members[0]->multicast(h.payload_of(i));

  // Back-to-back sends: one in flight, the rest stalled behind the window.
  EXPECT_EQ(h.members[0]->inflight(), 1u);
  EXPECT_EQ(h.members[0]->stats().window_stalls.count(),
            static_cast<uint64_t>(kSends - 1));

  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != static_cast<size_t>(kSends)) return false;
    return true;
  }));
  EXPECT_EQ(h.members[0]->inflight(), 0u) << "window debt fully repaid";

  // Lockstep must not reorder: seq 1..kSends in send order everywhere.
  for (size_t m = 0; m < 3; ++m) {
    ASSERT_EQ(h.logs[m].delivered.size(), static_cast<size_t>(kSends));
    for (int i = 0; i < kSends; ++i) {
      EXPECT_EQ(h.logs[m].delivered[static_cast<size_t>(i)].sender,
                h.hosts[0]);
      EXPECT_EQ(h.logs[m].delivered[static_cast<size_t>(i)].seq,
                static_cast<uint64_t>(i + 1));
      EXPECT_EQ(h.logs[m].delivered[static_cast<size_t>(i)].payload,
                h.payload_of(i));
    }
  }
}

TEST(FlowControl, NeverAckingReceiverStallsSenderAtWindow) {
  constexpr uint32_t kWindow = 4;
  auto tweak = [](gcs::GroupConfig& cfg) {
    cfg.inflight_window = kWindow;
    // No suspicion: the silent member stays in the view, so the all-ack
    // condition (and with it the sender's window debt) never clears.
    cfg.suspect_timeout = sim::seconds(600);
  };
  GcsHarness h(3, 2, tweak);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));

  // Member 2 goes silent (cable pull) but is never evicted.
  h.net.set_partition(h.hosts[2], 1);
  uint64_t sent_before = h.members[0]->stats().data_sent.count();

  constexpr int kSends = 10;
  for (int i = 0; i < kSends; ++i)
    h.members[0]->multicast(h.payload_of(i));
  h.sim.run_for(sim::seconds(5));

  // Nothing can deliver without the silent member's acks...
  EXPECT_TRUE(h.logs[0].delivered.empty());
  EXPECT_TRUE(h.logs[1].delivered.empty());
  // ...so the sender is pinned at the window, the excess stalled, and the
  // network saw at most `window` new data multicasts (retransmits aside,
  // none happen here: member 1 received everything that was sent).
  EXPECT_EQ(h.members[0]->inflight(), kWindow);
  EXPECT_EQ(h.members[0]->stats().window_stalls.count(),
            static_cast<uint64_t>(kSends - kWindow));
  EXPECT_EQ(h.members[0]->stats().data_sent.count() - sent_before, kWindow);
  EXPECT_LE(h.members[1]->stats().data_received.count(), kWindow);

  // Heal: acks resume, the window drains, every queued send delivers in
  // order at everyone.
  h.net.clear_partitions();
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != static_cast<size_t>(kSends)) return false;
    return true;
  }));
  EXPECT_EQ(h.members[0]->inflight(), 0u);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[m].delivered)) << "member " << m;
    for (int i = 0; i < kSends; ++i)
      EXPECT_EQ(h.logs[m].delivered[static_cast<size_t>(i)].payload,
                h.payload_of(i));
  }
}

}  // namespace
