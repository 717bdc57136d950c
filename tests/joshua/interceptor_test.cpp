// The command-interception path: jsub/jstat/jdel replicate through the
// group and execute identically at every head; output returns exactly once.
#include <gtest/gtest.h>

#include "joshua/joshua_harness.h"

namespace {

using namespace joshuatest;

TEST(Interceptor, SubmitReplicatesToAllHeads) {
  joshua::Cluster cluster(fast_options(3, 2));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::seconds(60)));
  ASSERT_NE(id, pbs::kInvalidJob);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
      return cluster.pbs_server(i).find_job(id).has_value();
    })) << "head " << i;
  }
  EXPECT_TRUE(heads_consistent(cluster));
}

TEST(Interceptor, SameJobIdsAtEveryHead) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  std::vector<pbs::JobId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(jsub_sync(cluster, client, quick_job(sim::seconds(60))));
  EXPECT_EQ(ids, (std::vector<pbs::JobId>{1, 2, 3}))
      << "deterministic id assignment from the ordered command stream";
}

TEST(Interceptor, JobRunsExactlyOnceAcrossHeads) {
  joshua::Cluster cluster(fast_options(4, 2));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::msec(400)));
  ASSERT_NE(id, pbs::kInvalidJob);
  ASSERT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));
  uint64_t executed = 0, emulated = 0;
  for (size_t c = 0; c < cluster.compute_count(); ++c) {
    executed += cluster.mom(c).jobs_executed();
    emulated += cluster.mom(c).launches_emulated();
  }
  EXPECT_EQ(executed, 1u) << "jmutex: the job ran exactly once";
  EXPECT_EQ(emulated, 3u) << "the other three heads' launches were emulated";
}

TEST(Interceptor, JdelCancelsEverywhere) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId blocker = jsub_sync(cluster, client, quick_job(sim::seconds(120)));
  pbs::JobId victim = jsub_sync(cluster, client, quick_job(sim::seconds(120)));
  ASSERT_NE(victim, pbs::kInvalidJob);
  (void)blocker;
  bool done = false;
  std::optional<pbs::SimpleResponse> resp;
  client.jdel(victim, [&](auto r) {
    done = true;
    resp = r;
  });
  testutil::run_until(cluster.sim(), [&] { return done; });
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, pbs::Status::kOk);
  ASSERT_TRUE(wait_state_everywhere(cluster, victim, pbs::JobState::kComplete));
  for (size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(cluster.pbs_server(i).find_job(victim)->cancelled);
}

TEST(Interceptor, JstatSeesConsistentState) {
  joshua::Cluster cluster(fast_options(3, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  jsub_sync(cluster, client, quick_job(sim::seconds(60)));
  jsub_sync(cluster, client, quick_job(sim::seconds(60)));
  std::optional<pbs::StatResponse> stat;
  client.jstat(pbs::StatRequest{}, [&](auto r) { stat = r; });
  testutil::run_until(cluster.sim(), [&] { return stat.has_value(); });
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->jobs.size(), 2u);
}

TEST(Interceptor, ExactlyOnceOutput) {
  // Only the contacted head answers; the reply count equals the command
  // count even though every head executes every command.
  joshua::Cluster cluster(fast_options(3, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  int replies = 0;
  for (int i = 0; i < 4; ++i) {
    client.jsub(quick_job(sim::seconds(60)), [&](auto r) {
      if (r) ++replies;
    });
  }
  cluster.sim().run_for(sim::seconds(10));
  EXPECT_EQ(replies, 4);
  uint64_t relayed = 0, executed = 0;
  for (size_t i = 0; i < 3; ++i) {
    relayed += cluster.joshua_server(i).core_stats().replies.count();
    executed += cluster.joshua_server(i).stats().commands_executed.count();
  }
  EXPECT_EQ(relayed, 4u) << "one reply per command";
  EXPECT_EQ(executed, 12u) << "every head executed every command";
}

TEST(Interceptor, HoldRejectedInReplayMode) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::seconds(60)));
  std::optional<pbs::SimpleResponse> resp;
  client.jhold(id, [&](auto r) { resp = r; });
  testutil::run_until(cluster.sim(), [&] { return resp.has_value(); });
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, pbs::Status::kUnsupported)
      << "JOSHUA v0.1 cannot hold/release (replay transfer limitation)";
}

TEST(Interceptor, HoldWorksInSnapshotMode) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = joshua::TransferMode::kSnapshot;
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId blocker = jsub_sync(cluster, client, quick_job(sim::seconds(5)));
  (void)blocker;
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::msec(100)));
  std::optional<pbs::SimpleResponse> resp;
  client.jhold(id, [&](auto r) { resp = r; });
  testutil::run_until(cluster.sim(), [&] { return resp.has_value(); });
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, pbs::Status::kOk);
  EXPECT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kHeld));
  resp.reset();
  client.jrls(id, [&](auto r) { resp = r; });
  EXPECT_TRUE(wait_state_everywhere(cluster, id, pbs::JobState::kComplete));
}

TEST(Interceptor, UnsupportedOpsRejected) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  // qsig has no JOSHUA wrapper ("The original PBS command may be executed
  // independently of JOSHUA").
  pbs::ClientConfig cfg = pbs::client_config_from(
      sim::fast_calibration(), cluster.joshua_endpoint(0));
  pbs::Client raw(cluster.net(), cluster.login_host(), 24000, cfg);
  std::optional<pbs::SimpleResponse> resp;
  raw.qsig(1, 15, [&](auto r) { resp = r; });
  testutil::run_until(cluster.sim(), [&] { return resp.has_value(); });
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, pbs::Status::kUnsupported);
}

TEST(Interceptor, BusyBeforeGroupForms) {
  joshua::Cluster cluster(fast_options(2, 1));
  // No start(): the heads never join.
  joshua::Client& client = cluster.make_jclient();
  bool done = false;
  std::optional<pbs::SubmitResponse> got{pbs::SubmitResponse{}};
  client.jsub(quick_job(), [&](auto r) {
    done = true;
    got = r;
  });
  testutil::run_until(cluster.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(done);
  // Either a busy error relayed from a head, or a full failover timeout.
  if (got.has_value()) {
    EXPECT_EQ(got->status, pbs::Status::kServerBusy);
  }
}

}  // namespace
