#include <gtest/gtest.h>

#include "gcs/gcs_harness.h"

namespace {

using gcstest::GcsHarness;
using State = gcs::GroupMember::State;

TEST(Membership, SingletonFoundsAlone) {
  GcsHarness h(1);
  h.join_all();
  EXPECT_TRUE(h.run_until_converged(1));
  EXPECT_EQ(h.members[0]->view().members, std::vector<gcs::MemberId>{h.hosts[0]});
  ASSERT_FALSE(h.logs[0].views.empty());
  EXPECT_EQ(h.logs[0].views[0].size(), 1u);
}

TEST(Membership, ColdStartFormsFullView) {
  for (int n = 2; n <= 4; ++n) {
    GcsHarness h(n, static_cast<uint64_t>(n));
    h.join_all();
    EXPECT_TRUE(h.run_until_converged(static_cast<size_t>(n))) << n << " members";
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(h.members[static_cast<size_t>(i)]->view().size(),
                static_cast<size_t>(n));
    }
  }
}

TEST(Membership, StaggeredJoin) {
  GcsHarness h(3);
  h.members[0]->join();
  ASSERT_TRUE(h.run_until_converged(1));
  h.members[1]->join();
  ASSERT_TRUE(h.run_until_converged(2));
  h.members[2]->join();
  ASSERT_TRUE(h.run_until_converged(3));
  // Every member saw monotonically growing epochs.
  for (const auto& log : {h.logs[0], h.logs[1], h.logs[2]}) {
    for (size_t i = 1; i < log.views.size(); ++i)
      EXPECT_GT(log.views[i].id.epoch, log.views[i - 1].id.epoch);
  }
}

TEST(Membership, FailureShrinksView) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  h.net.crash_host(h.hosts[2]);
  EXPECT_TRUE(h.run_until_converged(2));
  EXPECT_FALSE(h.members[0]->view().contains(h.hosts[2]));
}

TEST(Membership, SimultaneousFailuresHandled) {
  GcsHarness h(4);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(4));
  // "multiple simultaneous failures" (Section 5)
  h.net.crash_host(h.hosts[2]);
  h.net.crash_host(h.hosts[3]);
  EXPECT_TRUE(h.run_until_converged(2));
}

TEST(Membership, CoordinatorFailureMidFlushRecovers) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  // Crash the lowest-id member (the coordinator) and another member at
  // once: the remaining member must still form its view even though the
  // first flush attempt it participates in may target the dead coordinator.
  h.net.crash_host(h.hosts[0]);
  EXPECT_TRUE(h.run_until_converged(2, sim::seconds(60)));
  // Now crash the new coordinator too.
  h.net.crash_host(h.hosts[1]);
  EXPECT_TRUE(h.run_until_converged(1, sim::seconds(60)));
  EXPECT_EQ(h.members[2]->view().size(), 1u);
}

TEST(Membership, GracefulLeaveExcludesQuickly) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  h.members[1]->leave();
  EXPECT_EQ(h.members[1]->state(), State::kDown);
  EXPECT_TRUE(h.run_until_converged(2));
}

TEST(Membership, LastSurvivorKeepsServing) {
  GcsHarness h(4);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(4));
  h.net.crash_host(h.hosts[1]);
  h.net.crash_host(h.hosts[2]);
  h.net.crash_host(h.hosts[3]);
  EXPECT_TRUE(h.run_until_converged(1));
  // The survivor can still multicast and deliver to itself.
  h.members[0]->multicast(h.payload_of(7));
  testutil::run_until(h.sim, [&] { return !h.logs[0].delivered.empty(); });
  ASSERT_EQ(h.logs[0].delivered.size(), 1u);
}

TEST(Membership, RejoinAfterCrashGetsFreshStream) {
  GcsHarness h(2);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  h.members[1]->multicast(h.payload_of(1));
  testutil::run_until(h.sim, [&] { return h.logs[0].delivered.size() == 1; });

  h.net.crash_host(h.hosts[1]);
  ASSERT_TRUE(h.run_until_converged(1));
  h.net.restart_host(h.hosts[1]);
  h.members[1]->join();
  ASSERT_TRUE(h.run_until_converged(2));

  // The restarted member's sequence numbers restarted; its new message must
  // still deliver everywhere.
  h.members[1]->multicast(h.payload_of(2));
  EXPECT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[0].delivered.size() == 2; }));
}

TEST(Membership, PartitionFormsComponentsAndMerges) {
  GcsHarness h(4);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(4));
  // Cable pull: hosts 2,3 into island 1.
  h.net.set_partition(h.hosts[2], 1);
  h.net.set_partition(h.hosts[3], 1);
  // Both components install their own 2-member views (partitionable
  // membership, like Transis).
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    return h.members[0]->view().size() == 2 &&
           h.members[2]->view().size() == 2 &&
           h.members[0]->view().contains(h.hosts[1]) &&
           h.members[2]->view().contains(h.hosts[3]);
  }));
  // Heal: the merge beacons re-form the full view.
  h.net.clear_partitions();
  EXPECT_TRUE(h.run_until_converged(4, sim::seconds(60)));
}

TEST(Membership, RequireMajorityBlocksMinority) {
  auto tweak = [](gcs::GroupConfig& cfg) { cfg.require_majority = true; };
  GcsHarness h(4, 1, tweak);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(4));
  // Isolate one member: it must NOT form a singleton view.
  h.net.set_partition(h.hosts[3], 1);
  testutil::run_until(h.sim, [&] { return h.members[0]->view().size() == 3; },
                      sim::seconds(30));
  EXPECT_EQ(h.members[0]->view().size(), 3u) << "majority side proceeds";
  EXPECT_NE(h.members[3]->view().size(), 1u)
      << "minority member must not found a singleton view";
}

TEST(Membership, ViewsInstalledCountsTracked) {
  GcsHarness h(2);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  EXPECT_GE(h.members[0]->stats().views_installed.count(), 1u);
}

}  // namespace
