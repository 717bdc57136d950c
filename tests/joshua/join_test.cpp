// Head-node join with state transfer: replay mode (JOSHUA v0.1, Section 4)
// and snapshot mode (the paper's future-work extension).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "joshua/joshua_harness.h"

namespace {

using namespace joshuatest;

class JoinTest : public ::testing::TestWithParam<joshua::TransferMode> {};

TEST_P(JoinTest, JoinerInheritsQueueState) {
  joshua::ClusterOptions options = fast_options(3, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  // Start only heads 0 and 1.
  cluster.joshua_server(0).start();
  cluster.joshua_server(1).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).group().view().size() == 2;
  }));

  joshua::Client& client = cluster.make_jclient();
  pbs::JobId a = jsub_sync(cluster, client, quick_job(sim::seconds(300)));
  pbs::JobId b = jsub_sync(cluster, client, quick_job(sim::seconds(300)));
  ASSERT_NE(a, pbs::kInvalidJob);
  ASSERT_NE(b, pbs::kInvalidJob);

  // Head 2 joins late.
  cluster.joshua_server(2).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(2).group().view().size() == 3;
  }, sim::seconds(60)));

  // The joiner's PBS server must know both jobs.
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(2).find_job(a).has_value() &&
           cluster.pbs_server(2).find_job(b).has_value();
  }, sim::seconds(60)))
      << "state transfer must rebuild the queue at the joiner";
}

TEST_P(JoinTest, CommandsAfterJoinApplyAtJoiner) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  jsub_sync(cluster, client, quick_job(sim::seconds(300)));

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  pbs::JobId later = jsub_sync(cluster, client, quick_job(sim::seconds(300)));
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(1).find_job(later).has_value();
  }));
  cluster.sim().run_for(sim::seconds(2));
  EXPECT_TRUE(heads_consistent(cluster));
}

TEST_P(JoinTest, CrashedHeadRejoinsAndRecoversState) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::seconds(600)));
  ASSERT_NE(id, pbs::kInvalidJob);

  cluster.net().crash_host(cluster.head_hosts()[1]);
  ASSERT_TRUE(cluster.run_until_converged());
  // Note: the crashed head's PBS server keeps durable state on disk, but
  // the paper treats a rejoining head as fresh -- state comes via transfer.
  cluster.net().restart_host(cluster.head_hosts()[1]);
  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged(sim::seconds(60)));

  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(1).find_job(id).has_value();
  }, sim::seconds(60)));
  // And the rejoined head serves commands again.
  pbs::JobId next = jsub_sync(cluster, client, quick_job(sim::seconds(600)));
  EXPECT_NE(next, pbs::kInvalidJob);
  cluster.sim().run_for(sim::seconds(2));
  EXPECT_TRUE(heads_consistent(cluster));
}

INSTANTIATE_TEST_SUITE_P(
    TransferModes, JoinTest,
    ::testing::Values(joshua::TransferMode::kReplay,
                      joshua::TransferMode::kSnapshot),
    [](const ::testing::TestParamInfo<joshua::TransferMode>& info) {
      return info.param == joshua::TransferMode::kReplay ? "Replay"
                                                         : "Snapshot";
    });

TEST(JoinReplayCompaction, CompletedJobsNotReplayed) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  // Run two jobs to completion, keep one queued.
  pbs::JobId done1 = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  pbs::JobId done2 = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(0).find_job(done2);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(60)));
  pbs::JobId live = jsub_sync(cluster, client, quick_job(sim::seconds(600)));
  (void)done1;

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(1).find_job(live).has_value() ||
           !cluster.pbs_server(1).jobs().empty();
  }, sim::seconds(60)));
  cluster.sim().run_for(sim::seconds(5));

  // Compaction: the completed jobs are not replayed at the joiner (they
  // would re-run!), only the live one is -- and under its ORIGINAL id.
  EXPECT_EQ(cluster.pbs_server(1).jobs().size(), 1u);
  EXPECT_TRUE(cluster.pbs_server(1).find_job(live).has_value());
  EXPECT_EQ(cluster.mom(0).jobs_executed(), 3u)
      << "done1 + done2 + live ran once each; the replay re-ran nothing";
  EXPECT_GE(cluster.joshua_server(1).stats().replays_applied.count(), 1u);
}

TEST(JoinReplayCompaction, OverlappingSubmitsReplayUnderTheirOwnIds) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  // Two submits in flight at once: the second is ordered (and logged)
  // before the first one's job id comes back from the local PBS.
  int accepted = 0;
  for (const char* name : {"first", "second"}) {
    pbs::JobSpec spec = quick_job(sim::seconds(600));
    spec.name = name;
    client.jsub(spec, [&](std::optional<pbs::SubmitResponse> r) {
      if (r && r->status == pbs::Status::kOk) ++accepted;
    });
  }
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] { return accepted == 2; }));

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  auto live_queue = [](const pbs::Server& server) {
    std::vector<std::tuple<pbs::JobId, std::string, pbs::JobState>> out;
    for (const auto& [id, job] : server.jobs())
      if (!job.terminal()) out.emplace_back(id, job.spec.name, job.state);
    return out;
  };
  testutil::run_until(cluster.sim(), [&] {
    return !cluster.joshua_server(1).replaying() &&
           live_queue(cluster.pbs_server(1)) == live_queue(cluster.pbs_server(0));
  }, sim::seconds(60));
  ASSERT_EQ(live_queue(cluster.pbs_server(0)).size(), 2u);
  EXPECT_EQ(live_queue(cluster.pbs_server(1)),
            live_queue(cluster.pbs_server(0)))
      << "the replayed log must give each submit its own job id";
}

TEST(JoinSnapshot, SnapshotPreservesJobIdsAndStates) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = joshua::TransferMode::kSnapshot;
  joshua::Cluster cluster(options);
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId done = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(0).find_job(done);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(60)));

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(1).find_job(done);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(60)))
      << "snapshot carries even completed-job history, unlike replay";
}

}  // namespace
