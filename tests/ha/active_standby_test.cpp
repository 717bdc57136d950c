#include "ha/active_standby.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace {

using ha::ActiveStandbyCluster;
using ha::ActiveStandbyOptions;

ActiveStandbyOptions fast_as_options() {
  ActiveStandbyOptions options;
  options.cal = sim::fast_calibration();
  options.heartbeat_interval = sim::msec(100);
  options.detect_timeout = sim::msec(400);
  options.restart_delay = sim::seconds(3);
  options.sched = testutil::env_options().sched;
  return options;
}

pbs::JobSpec job(sim::Duration run = sim::msec(300)) {
  pbs::JobSpec spec;
  spec.run_time = run;
  return spec;
}

TEST(ActiveStandby, NormalOperationNoFailover) {
  ActiveStandbyCluster cluster(fast_as_options());
  pbs::Client& client = cluster.make_client();
  bool done = false;
  client.qsub(job(), [&](auto r) { done = r.has_value(); });
  testutil::run_until(cluster.sim(), [&] { return done; });
  EXPECT_TRUE(done);
  cluster.sim().run_for(sim::seconds(30));
  EXPECT_FALSE(cluster.failed_over());
  EXPECT_EQ(cluster.active_server().count_in_state(pbs::JobState::kComplete),
            1u);
}

TEST(ActiveStandby, FailoverBringsStandbyUpWithState) {
  ActiveStandbyCluster cluster(fast_as_options());
  pbs::Client& client = cluster.make_client();
  pbs::JobId id = pbs::kInvalidJob;
  client.qsub(job(sim::seconds(600)), [&](auto r) {
    if (r) id = r->job_id;
  });
  testutil::run_until(cluster.sim(), [&] { return id != pbs::kInvalidJob; });

  sim::Time crash_time = cluster.sim().now();
  cluster.net().crash_host(cluster.primary_host());
  ASSERT_TRUE(testutil::run_until(
      cluster.sim(), [&] { return cluster.failed_over(); }, sim::seconds(30)));
  // Interruption of service: detection + restart delay.
  sim::Duration detection = cluster.failover_time() - crash_time;
  EXPECT_GE(detection.us, sim::msec(300).us);
  cluster.sim().run_for(sim::seconds(5));
  EXPECT_EQ(cluster.active_endpoint().host, cluster.standby_host());
  // The checkpointed job survived on shared storage...
  auto recovered = cluster.active_server().find_job(id);
  ASSERT_TRUE(recovered.has_value());
  // ...but was requeued: active/standby restarts running applications.
  EXPECT_NE(recovered->state, pbs::JobState::kComplete);
}

TEST(ActiveStandby, ServiceGapDuringFailover) {
  // Unlike JOSHUA, there is a window with NO service at all.
  ActiveStandbyCluster cluster(fast_as_options());
  pbs::Client& client = cluster.make_client();
  cluster.net().crash_host(cluster.primary_host());
  // Submit during the failover window: must fail (timeout).
  bool called = false;
  std::optional<pbs::SubmitResponse> got{pbs::SubmitResponse{}};
  client.qsub(job(), [&](auto r) {
    called = true;
    got = r;
  });
  testutil::run_until(cluster.sim(), [&] { return called; }, sim::seconds(60));
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value()) << "active/standby has an outage window";

  // After failover completes, the standby serves.
  testutil::run_until(cluster.sim(),
                      [&] { return cluster.failed_over(); }, sim::seconds(30));
  cluster.sim().run_for(sim::seconds(5));
  client.set_server(cluster.active_endpoint());
  bool ok = false;
  client.qsub(job(), [&](auto r) { ok = r.has_value(); });
  testutil::run_until(cluster.sim(), [&] { return ok; }, sim::seconds(30));
  EXPECT_TRUE(ok);
}

TEST(ActiveStandby, PeriodicCheckpointCanRollBack) {
  // With a coarse checkpoint interval, submissions after the last
  // checkpoint are LOST on failover -- the rollback the paper warns about.
  ActiveStandbyOptions options = fast_as_options();
  options.checkpoint_interval = sim::seconds(10);
  ActiveStandbyCluster cluster(options);
  pbs::Client& client = cluster.make_client();

  // First job inside the first checkpoint window...
  pbs::JobId first = pbs::kInvalidJob;
  client.qsub(job(sim::seconds(600)), [&](auto r) {
    if (r) first = r->job_id;
  });
  testutil::run_until(cluster.sim(),
                      [&] { return first != pbs::kInvalidJob; });
  // ...survive a checkpoint boundary...
  cluster.sim().run_for(sim::seconds(11));
  // ...then a second job that never reaches a checkpoint.
  pbs::JobId second = pbs::kInvalidJob;
  client.qsub(job(sim::seconds(600)), [&](auto r) {
    if (r) second = r->job_id;
  });
  testutil::run_until(cluster.sim(),
                      [&] { return second != pbs::kInvalidJob; });
  cluster.sim().run_for(sim::seconds(2));
  cluster.net().crash_host(cluster.primary_host());
  testutil::run_until(cluster.sim(), [&] { return cluster.failed_over(); },
                      sim::seconds(30));
  cluster.sim().run_for(sim::seconds(5));

  EXPECT_TRUE(cluster.active_server().find_job(first).has_value());
  EXPECT_FALSE(cluster.active_server().find_job(second).has_value())
      << "rollback to the last checkpoint loses the second submission";
}

}  // namespace
