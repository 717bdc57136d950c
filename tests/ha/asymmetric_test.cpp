#include "ha/asymmetric.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace {

using ha::AsymmetricCluster;
using ha::AsymmetricOptions;

AsymmetricOptions fast_options(int heads = 2, int computes = 2) {
  AsymmetricOptions options;
  options.head_count = heads;
  options.compute_count = computes;
  options.cal = sim::fast_calibration();
  options.sched = testutil::env_options().sched;
  return options;
}

pbs::JobSpec job(sim::Duration run = sim::msec(300)) {
  pbs::JobSpec spec;
  spec.run_time = run;
  return spec;
}

TEST(Asymmetric, HeadsServeIndependently) {
  AsymmetricCluster cluster(fast_options());
  pbs::Client& c0 = cluster.make_client(0);
  pbs::Client& c1 = cluster.make_client(1);
  int done = 0;
  c0.qsub(job(), [&](auto r) { done += r.has_value(); });
  c1.qsub(job(), [&](auto r) { done += r.has_value(); });
  testutil::run_until(cluster.sim(), [&] { return done == 2; });
  EXPECT_EQ(cluster.server(0).jobs().size(), 1u);
  EXPECT_EQ(cluster.server(1).jobs().size(), 1u);
  cluster.sim().run_for(sim::seconds(10));
  EXPECT_EQ(cluster.server(0).count_in_state(pbs::JobState::kComplete), 1u);
  EXPECT_EQ(cluster.server(1).count_in_state(pbs::JobState::kComplete), 1u);
}

TEST(Asymmetric, NoCoordinationMeansIndependentJobIds) {
  // Both heads hand out job id 1: there is no global state (the model's
  // limitation for stateful services, Section 2).
  AsymmetricCluster cluster(fast_options());
  pbs::Client& c0 = cluster.make_client(0);
  pbs::Client& c1 = cluster.make_client(1);
  pbs::JobId id0 = pbs::kInvalidJob, id1 = pbs::kInvalidJob;
  c0.qsub(job(), [&](auto r) { id0 = r ? r->job_id : 0; });
  c1.qsub(job(), [&](auto r) { id1 = r ? r->job_id : 0; });
  testutil::run_until(cluster.sim(), [&] {
    return id0 != pbs::kInvalidJob && id1 != pbs::kInvalidJob;
  });
  EXPECT_EQ(id0, id1) << "duplicate ids: the heads are uncoordinated";
}

TEST(Asymmetric, HeadFailureStrandsItsJobs) {
  AsymmetricCluster cluster(fast_options());
  pbs::Client& c0 = cluster.make_client(0);
  pbs::JobId id = pbs::kInvalidJob;
  c0.qsub(job(sim::seconds(600)), [&](auto r) { id = r ? r->job_id : 0; });
  testutil::run_until(cluster.sim(), [&] { return id != pbs::kInvalidJob; });
  cluster.net().crash_host(cluster.head_host(0));
  cluster.sim().run_for(sim::seconds(1));
  EXPECT_EQ(cluster.stranded_jobs(), 1u)
      << "asymmetric A/A does not replicate state: head 0's queue is gone";
  // Head 1 still serves new work (the availability benefit that remains).
  pbs::Client& c1 = cluster.make_client(1);
  bool ok = false;
  c1.qsub(job(), [&](auto r) { ok = r.has_value(); });
  testutil::run_until(cluster.sim(), [&] { return ok; });
  EXPECT_TRUE(ok);
}

TEST(Asymmetric, ThroughputScalesAcrossHeads) {
  // Two users on two heads submit in parallel: the wall-clock for 2k
  // submissions approaches the single-head time for k (the model's selling
  // point for high-throughput scenarios).
  AsymmetricCluster two(fast_options(2, 2));
  pbs::Client& c0 = two.make_client(0);
  pbs::Client& c1 = two.make_client(1);
  const int k = 10;
  int done2 = 0;
  sim::Time start2 = two.sim().now();
  std::function<void(pbs::Client&, int)> chain = [&](pbs::Client& c, int left) {
    c.qsub(job(sim::seconds(600)), [&, left](auto) {
      ++done2;
      if (left > 1) chain(c, left - 1);
    });
  };
  chain(c0, k);
  chain(c1, k);
  testutil::run_until(two.sim(), [&] { return done2 == 2 * k; },
                      sim::seconds(120), sim::usec(100));
  sim::Duration parallel_time = two.sim().now() - start2;

  AsymmetricCluster one(fast_options(1, 2));
  pbs::Client& c = one.make_client(0);
  int done1 = 0;
  sim::Time start1 = one.sim().now();
  std::function<void(int)> chain1 = [&](int left) {
    c.qsub(job(sim::seconds(600)), [&, left](auto) {
      ++done1;
      if (left > 1) chain1(left - 1);
    });
  };
  chain1(2 * k);
  testutil::run_until(one.sim(), [&] { return done1 == 2 * k; },
                      sim::seconds(120), sim::usec(100));
  sim::Duration serial_time = one.sim().now() - start1;

  EXPECT_LT(parallel_time.us, serial_time.us * 3 / 4)
      << "two active heads materially beat one for submission throughput";
}

}  // namespace
