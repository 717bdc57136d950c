#include <gtest/gtest.h>

#include "gcs/gcs_harness.h"

namespace {

using gcstest::GcsHarness;

TEST(Delivery, AgreedDeliversAtAllMembers) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  h.members[0]->multicast(h.payload_of(1));
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    return h.logs[0].delivered.size() == 1 && h.logs[1].delivered.size() == 1 &&
           h.logs[2].delivered.size() == 1;
  }));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(h.logs[static_cast<size_t>(i)].delivered[0].payload,
              h.payload_of(1));
    EXPECT_EQ(h.logs[static_cast<size_t>(i)].delivered[0].sender, h.hosts[0]);
  }
}

TEST(Delivery, ConcurrentSendersSameTotalOrderEverywhere) {
  GcsHarness h(4);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(4));
  // Every member sends 5 messages at once.
  for (int round = 0; round < 5; ++round) {
    for (size_t i = 0; i < 4; ++i)
      h.members[i]->multicast(h.payload_of(static_cast<int>(i) * 100 + round));
  }
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != 20) return false;
    return true;
  }));
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(GcsHarness::prefix_consistent(h.logs[0].delivered,
                                              h.logs[i].delivered))
        << "member " << i << " diverged";
  }
  for (const auto& log : h.logs) EXPECT_TRUE(GcsHarness::fifo_clean(log.delivered));
}

TEST(Delivery, MixedLevelsKeepTotalOrderAmongTotallyOrderedMessages) {
  // Three senders interleave their multicasts: every member delivers them
  // in one order, each sender's in sequence.
  GcsHarness h(3, 21);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  for (int i = 0; i < 4; ++i) {
    h.members[0]->multicast(h.payload_of(i));
    h.members[1]->multicast(h.payload_of(100 + i));
    h.members[2]->multicast(h.payload_of(200 + i));
  }
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != 12) return false;
    return true;
  }));
  auto order = [](const std::vector<gcs::Delivered>& log) {
    std::vector<std::pair<gcs::MemberId, uint64_t>> out;
    for (const auto& d : log) out.emplace_back(d.sender, d.seq);
    return out;
  };
  auto ref = order(h.logs[0].delivered);
  for (size_t i = 1; i < 3; ++i)
    EXPECT_EQ(order(h.logs[i].delivered), ref) << "member " << i;
  for (const auto& log : h.logs)
    EXPECT_TRUE(GcsHarness::fifo_clean(log.delivered));
}

TEST(Delivery, LossRecoveredByNack) {
  GcsHarness h(2);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  // Drop everything briefly around the send, then heal.
  h.net.mutable_config().loss_rate = 1.0;
  h.members[0]->multicast(h.payload_of(3));
  h.sim.run_for(sim::msec(30));
  h.net.mutable_config().loss_rate = 0.0;
  EXPECT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[1].delivered.size() == 1; }))
      << "retransmission must recover the lost frame";
  EXPECT_EQ(h.logs[1].delivered[0].payload, h.payload_of(3));
}

TEST(Delivery, RandomLossStillDeliversEverythingInOrder) {
  GcsHarness h(3, 99);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  h.net.mutable_config().loss_rate = 0.10;
  for (int i = 0; i < 30; ++i)
    h.members[static_cast<size_t>(i % 3)]->multicast(h.payload_of(i));
  h.net.mutable_config().loss_rate = 0.0;  // stop losing after the burst
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != 30) return false;
    return true;
  }, sim::seconds(120)));
  for (size_t i = 1; i < 3; ++i)
    EXPECT_TRUE(GcsHarness::prefix_consistent(h.logs[0].delivered,
                                              h.logs[i].delivered));
}

TEST(Delivery, MessagesDuringFlushArriveInNextView) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  // Crash member 2, then immediately send while the view change is still
  // in flight: virtual synchrony buffers the send.
  h.net.crash_host(h.hosts[2]);
  h.sim.run_for(sim::msec(300));  // inside suspicion/flush window
  h.members[0]->multicast(h.payload_of(42));
  ASSERT_TRUE(h.run_until_converged(2));
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    return !h.logs[1].delivered.empty() &&
           h.logs[1].delivered.back().payload == h.payload_of(42);
  }));
}

TEST(Delivery, SenderFailureAfterPartialReceiptStillAgrees) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  // Sender 2 multicasts, then dies immediately. Depending on timing the
  // message reached a subset; the flush must make delivery uniform.
  h.members[2]->multicast(h.payload_of(5));
  h.sim.run_for(sim::msec(1));
  h.net.crash_host(h.hosts[2]);
  ASSERT_TRUE(h.run_until_converged(2));
  h.sim.run_for(sim::seconds(2));
  EXPECT_EQ(h.logs[0].delivered.size(), h.logs[1].delivered.size())
      << "survivors must agree on whether the dying sender's message counts";
  EXPECT_TRUE(
      GcsHarness::prefix_consistent(h.logs[0].delivered, h.logs[1].delivered));
}

TEST(Delivery, ThroughputBurstAllDelivered) {
  GcsHarness h(2);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  for (int i = 0; i < 200; ++i) h.members[0]->multicast(h.payload_of(i));
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    return h.logs[0].delivered.size() == 200 &&
           h.logs[1].delivered.size() == 200;
  }, sim::seconds(120)));
  EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[1].delivered));
}

TEST(Delivery, MulticastWhileDownThrows) {
  GcsHarness h(1);
  EXPECT_THROW(h.members[0]->multicast(h.payload_of(1)), std::logic_error);
}

TEST(Delivery, StatsCountersAdvance) {
  GcsHarness h(2);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  h.members[0]->multicast(h.payload_of(1));
  testutil::run_until(h.sim, [&] { return h.logs[1].delivered.size() == 1; });
  EXPECT_EQ(h.members[0]->stats().data_sent.count(), 1u);
  EXPECT_EQ(h.members[1]->stats().data_received.count(), 1u);
  EXPECT_GE(h.members[0]->stats().cuts_received.count(), 1u);
  EXPECT_EQ(h.members[1]->stats().delivered.count(), 1u);
}

}  // namespace
