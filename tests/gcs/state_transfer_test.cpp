#include <gtest/gtest.h>

#include "gcs/gcs_harness.h"

namespace {

using gcstest::GcsHarness;

TEST(StateTransfer, JoinerReceivesSnapshot) {
  GcsHarness h(2);
  h.members[0]->join();
  ASSERT_TRUE(h.run_until_converged(1));
  // Build up state at the founding member.
  for (int i = 0; i < 5; ++i) h.members[0]->multicast(h.payload_of(i));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[0].app_log.size() == 5; }));

  h.members[1]->join();
  ASSERT_TRUE(h.run_until_converged(2));
  EXPECT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[1].app_log.size() == 5; }))
      << "joiner must inherit the 5-entry application state";
  EXPECT_EQ(h.logs[1].app_log, h.logs[0].app_log);
}

TEST(StateTransfer, MessagesDuringJoinApplyAfterState) {
  GcsHarness h(3);
  h.members[0]->join();
  h.members[1]->join();
  ASSERT_TRUE(h.run_until_converged(2));
  for (int i = 0; i < 3; ++i) h.members[0]->multicast(h.payload_of(i));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[1].app_log.size() == 3; }));

  h.members[2]->join();
  ASSERT_TRUE(h.run_until_converged(3));
  // Traffic continues while (or right after) the joiner installs state.
  h.members[1]->multicast(h.payload_of(100));
  h.members[0]->multicast(h.payload_of(101));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[2].app_log.size() == 5; }));
  EXPECT_EQ(h.logs[2].app_log, h.logs[0].app_log)
      << "snapshot + post-join messages must equal the founders' state";
}

TEST(StateTransfer, StateSourceCrashFallsBackToAnotherMember) {
  GcsHarness h(3);
  h.members[0]->join();
  h.members[1]->join();
  ASSERT_TRUE(h.run_until_converged(2));
  for (int i = 0; i < 4; ++i) h.members[0]->multicast(h.payload_of(i));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[1].app_log.size() == 4; }));

  h.members[2]->join();
  // Kill the lowest-id old member (the designated state source) the moment
  // the view forms, racing the state transfer.
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.members[2]->is_member(); }, sim::seconds(30)));
  h.net.crash_host(h.hosts[0]);
  EXPECT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[2].app_log.size() >= 4; }, sim::seconds(60)))
      << "joiner must fall back to member 1 for the snapshot";
}

TEST(StateTransfer, RestartedMemberGetsStateAgain) {
  GcsHarness h(2);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));
  for (int i = 0; i < 3; ++i) h.members[0]->multicast(h.payload_of(i));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[1].app_log.size() == 3; }));

  // Member 1 crashes, loses everything, restarts and rejoins.
  h.net.crash_host(h.hosts[1]);
  h.logs[1] = gcstest::MemberLog{};  // the process state died with it
  ASSERT_TRUE(h.run_until_converged(1));
  h.net.restart_host(h.hosts[1]);
  h.members[1]->join();
  ASSERT_TRUE(h.run_until_converged(2));
  EXPECT_TRUE(testutil::run_until(
      h.sim, [&] { return h.logs[1].app_log.size() == 3; }))
      << "rejoining head recovers full state via transfer";
}

TEST(StateTransfer, NoTransferForFoundingGroup) {
  GcsHarness h(3);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  for (const auto& log : h.logs) EXPECT_TRUE(log.app_log.empty());
  EXPECT_EQ(h.members[0]->stats().delivered.count(), 0u);
}

}  // namespace
