// jmutex/jdone distributed mutual exclusion: exactly-once job launch.
#include <gtest/gtest.h>

#include "joshua/joshua_harness.h"

namespace {

using namespace joshuatest;

TEST(JMutex, ExactlyOneWinnerPerJob) {
  joshua::Cluster cluster(fast_options(3, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::msec(300)));
  ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));

  uint64_t grants = 0, denials = 0;
  for (size_t i = 0; i < 3; ++i) {
    grants += cluster.joshua_server(i).stats().mutex_grants.count();
    denials += cluster.joshua_server(i).stats().mutex_denials.count();
  }
  EXPECT_EQ(grants, 1u);
  EXPECT_EQ(denials, 2u);
  EXPECT_EQ(cluster.mom_plugin(0).wins(), 1u);
  EXPECT_EQ(cluster.mom_plugin(0).emulations(), 2u);
  EXPECT_EQ(cluster.mom_plugin(0).aborts(), 0u);
}

TEST(JMutex, EveryJobInStreamRunsOnce) {
  joshua::Cluster cluster(fast_options(4, 2, 5));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  std::vector<pbs::JobId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(jsub_sync(cluster, client, quick_job(sim::msec(200))));
  for (pbs::JobId id : ids)
    ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));
  uint64_t executed = 0;
  for (size_t c = 0; c < 2; ++c) executed += cluster.mom(c).jobs_executed();
  EXPECT_EQ(executed, 6u) << "each of the 6 jobs ran exactly once";
}

TEST(JMutex, WinnerHeadDeathDoesNotLoseJob) {
  // The winning launch attempt lives on the MOM: once granted, the job
  // runs even if the winning head dies immediately after.
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::seconds(3)));
  // Wait for the real run to begin, then kill a head.
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.mom(0).jobs_executed() == 1;
  }, sim::seconds(60)));
  cluster.net().crash_host(cluster.head_hosts()[0]);
  ASSERT_TRUE(cluster.run_until_converged());
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(1).find_job(id);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(120)));
}

TEST(JMutex, PluginRotatesToLiveHeadWhenRequestingHeadDies) {
  // Kill a head right after it sends its launch to the mom; the mom's
  // jmutex RPC to the dead head times out and must rotate to a live head,
  // which arbitrates by proxy.
  joshua::Cluster cluster(fast_options(2, 1, 13));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::seconds(2)));
  ASSERT_NE(id, pbs::kInvalidJob);
  // Right after submission both heads schedule + launch. Kill head 0 in
  // the narrow window before the prologue resolves.
  cluster.sim().run_for(sim::msec(150));
  cluster.net().crash_host(cluster.head_hosts()[0]);
  ASSERT_TRUE(cluster.run_until_converged(sim::seconds(60)));
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(1).find_job(id);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(300)))
      << "the job must still run exactly once via the surviving head";
  EXPECT_LE(cluster.mom(0).jobs_executed(), 1u);
}

TEST(JMutex, JdoneReleasesMutexGroupWide) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));
  // After jdone, a late jmutex query for the job must be denied (the job
  // already ran) -- exercised via the joshua server stats after a second
  // identical launch attempt cannot happen through PBS, so assert the
  // mutex bookkeeping: both heads saw the MutexDone.
  cluster.sim().run_for(sim::seconds(1));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_GE(cluster.joshua_server(i).stats().mutex_requests.count(), 1u);
  }
}

TEST(JMutex, OrderedCompletionCannotOvertakeCommandApplyUnderBatching) {
  // Regression for the batched ordering hot path. Coalesced ack cuts delay
  // a head's deliveries by up to nack_delay, so a jdel and the MutexDone
  // its kill triggered at a faster head can drain in one bunch at the slow
  // head. The MutexDone's local-PBS completion injection used to be sent
  // inline while command applies defer through exec_proc, so the
  // completion could overtake the delete at the colocated PBS: the delete
  // then found a terminal job and answered kInvalidState. Both local
  // applies now defer through the same exec_proc stage, which restores
  // FIFO over the fixed-latency loopback.
  joshua::ClusterOptions options = fast_options(2, 1);
  options.order_batch = 64;
  options.order_window = 16;
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::hours(1)));
  ASSERT_NE(id, pbs::kInvalidJob);
  ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kRunning));

  std::optional<pbs::SimpleResponse> del;
  client.jdel(id, [&](std::optional<pbs::SimpleResponse> r) { del = r; });
  ASSERT_TRUE(testutil::run_until(
      cluster.sim(), [&] { return del.has_value(); }, sim::seconds(60)));
  EXPECT_EQ(del->status, pbs::Status::kOk)
      << "deleting a running job must order the delete before its own "
         "kill-triggered completion on every head";
  ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));
  EXPECT_TRUE(heads_consistent(cluster));
  for (size_t i = 0; i < 2; ++i) {
    auto job = cluster.pbs_server(i).find_job(id);
    ASSERT_TRUE(job.has_value());
    EXPECT_TRUE(job->cancelled) << "head " << i;
  }
}

TEST(JMutex, SequentialJobsDifferentWinnersPossible) {
  // With deterministic FIFO both heads race each jmutex; the winner is
  // whoever's request is first in total order -- verify the mechanism
  // stays correct over many jobs (winner identity is incidental).
  joshua::Cluster cluster(fast_options(3, 2, 17));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  for (int i = 0; i < 4; ++i) {
    pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::msec(150)));
    ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));
  }
  uint64_t total_wins = 0;
  for (size_t c = 0; c < 2; ++c) total_wins += cluster.mom_plugin(c).wins();
  EXPECT_EQ(total_wins, 4u);
  EXPECT_TRUE(heads_consistent(cluster));
}

}  // namespace
