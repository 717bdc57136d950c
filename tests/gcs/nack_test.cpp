// NACK-retransmission edge cases in the reliability layer: a healed
// partition recovers lost data via NACK -> retransmit, duplicate NACKs for
// the same gap are deduplicated inside the nacked_ window (and re-armed
// after it expires), and the Stats counter agrees with the "gcs.nacks_sent"
// telemetry counter.
//
// The suspect timeout is raised far above every partition in these tests so
// no view change fires: this exercises the reliability layer alone, not the
// membership protocol.
#include <gtest/gtest.h>

#include <algorithm>

#include "gcs_harness.h"

namespace {

using gcstest::GcsHarness;

uint64_t total_nacks_sent(const GcsHarness& h) {
  uint64_t total = 0;
  for (const auto& m : h.members) total += m->stats().nacks_sent.count();
  return total;
}

uint64_t nacks_counter(GcsHarness& h) {
  const auto* cell = h.sim.telemetry().metrics().find_counter("gcs.nacks_sent");
  return cell ? cell->value : 0;
}

size_t deliveries_of(const gcstest::MemberLog& log, gcs::MemberId sender,
                     uint64_t seq) {
  size_t n = 0;
  for (const auto& d : log.delivered) {
    if (d.sender == sender && d.seq == seq) ++n;
  }
  return n;
}

TEST(Nack, HealedPartitionRecoversViaRetransmit) {
  GcsHarness h(2, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);  // no view change in this test
    cfg.flush_timeout = sim::seconds(60);
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));

  // Cut member 1 off, multicast while it cannot hear, then heal. The only
  // way member 1 can ever see the message is a NACK-triggered retransmit
  // prompted by member 0's periodic cut advertising sent_upto.
  sim::Time t0 = h.sim.now();
  h.faults.partition(h.hosts[1], 1, t0 + sim::msec(10), t0 + sim::msec(200));
  h.sim.run_for(sim::msec(50));
  h.members[0]->multicast(h.payload_of(7));
  h.sim.run_for(sim::msec(100));
  EXPECT_EQ(deliveries_of(h.logs[1], h.hosts[0], 1), 0u)
      << "partitioned member must not have the message yet";

  // Heal and give the NACK/retransmit cycle time to complete.
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return deliveries_of(h.logs[1], h.hosts[0], 1) > 0; },
      sim::seconds(5)));

  EXPECT_EQ(deliveries_of(h.logs[1], h.hosts[0], 1), 1u)
      << "retransmit must deliver exactly once";
  EXPECT_GE(h.members[1]->stats().nacks_sent.count(), 1u);
  EXPECT_GE(h.members[0]->stats().retransmits_served.count(), 1u);
  EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[1].delivered));
  EXPECT_TRUE(
      GcsHarness::prefix_consistent(h.logs[0].delivered, h.logs[1].delivered));
  // No spurious view change happened: reliability-layer-only recovery.
  EXPECT_TRUE(h.converged(2));
  EXPECT_EQ(nacks_counter(h), total_nacks_sent(h));
}

TEST(Nack, DuplicateNacksDedupedWithinWindowRearmedAfter) {
  // Heartbeat cuts every 10ms re-announce the gap ~6 times per dedup window
  // (nack_delay * 4 = 60ms). A slow retransmit path (send_proc 150ms) keeps
  // the gap open across several windows, so:
  //   * without dedup there would be one NACK per observation (dozens);
  //   * with dedup there is about one per expired window (a few), and
  //   * at least two in total, proving the window re-arms rather than
  //     suppressing the gap forever.
  GcsHarness h(2, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);
    cfg.flush_timeout = sim::seconds(60);
    cfg.heartbeat_interval = sim::msec(10);
    cfg.nack_delay = sim::msec(15);
    cfg.send_proc = sim::msec(150);  // retransmission leaves ~3 windows open
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));

  sim::Time t0 = h.sim.now();
  h.faults.partition(h.hosts[1], 1, t0 + sim::msec(5), t0 + sim::msec(100));
  h.sim.run_for(sim::msec(50));
  h.members[0]->multicast(h.payload_of(9));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return deliveries_of(h.logs[1], h.hosts[0], 1) > 0; },
      sim::seconds(10)));
  // Let any still-pending NACK timers and duplicate retransmits land.
  h.sim.run_for(sim::seconds(1));

  uint64_t nacks = h.members[1]->stats().nacks_sent.count();
  EXPECT_GE(nacks, 2u) << "the dedup window must re-arm after expiring";
  EXPECT_LE(nacks, 6u) << "per-observation NACKs were not deduplicated";
  // Duplicate retransmits (one per NACK that got through) collapse in the
  // ordering buffer: still exactly one delivery.
  EXPECT_EQ(deliveries_of(h.logs[1], h.hosts[0], 1), 1u);
  EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[1].delivered));
  EXPECT_EQ(nacks_counter(h), total_nacks_sent(h))
      << "Stats::nacks_sent and the gcs.nacks_sent counter must agree";
}

// The dedup map keeps an id only while it is still missing: once the
// retransmit fills the gap, the entry goes. NACKing many messages in one
// view must not grow it.
TEST(Nack, DedupMapDoesNotGrowWithNackedMessagesInOneView) {
  GcsHarness h(2, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);  // no view change in this test
    cfg.flush_timeout = sim::seconds(60);
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  const gcs::ViewId view = h.members[1]->view().id;

  constexpr uint64_t kRounds = 24;
  size_t peak = 0;
  for (uint64_t seq = 1; seq <= kRounds; ++seq) {
    // Member 1 misses message `seq` and has to NACK it.
    sim::Time t0 = h.sim.now();
    h.faults.partition(h.hosts[1], 1, t0 + sim::msec(5), t0 + sim::msec(100));
    h.sim.run_for(sim::msec(20));
    h.members[0]->multicast(h.payload_of(static_cast<int>(seq)));
    ASSERT_TRUE(testutil::run_until(
        h.sim, [&] { return deliveries_of(h.logs[1], h.hosts[0], seq) > 0; },
        sim::seconds(5)));
    h.sim.run_for(sim::msec(200));
    peak = std::max(peak, h.members[1]->nack_dedup_size());
  }
  EXPECT_EQ(h.members[1]->view().id, view) << "one view throughout";
  EXPECT_GE(h.members[1]->stats().nacks_sent.count(), kRounds);
  EXPECT_LE(peak, 1u) << "the NACK dedup map grew with the messages NACKed";
}

TEST(Nack, NoGapMeansNoNacks) {
  GcsHarness h(3, 1);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  for (int i = 0; i < 10; ++i) {
    h.members[static_cast<size_t>(i) % 3]->multicast(h.payload_of(i));
    h.sim.run_for(sim::msec(20));
  }
  h.sim.run_for(sim::seconds(1));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.logs[i].delivered.size(), 10u);
    EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[i].delivered));
  }
  EXPECT_EQ(total_nacks_sent(h), 0u)
      << "a loss-free run must not NACK anything";
  EXPECT_EQ(nacks_counter(h), 0u);
}

}  // namespace
