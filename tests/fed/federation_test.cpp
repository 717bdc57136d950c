// Federation integration: a sharded joshua::Cluster -- independent ordering
// groups per shard -- behind the router. Covers routed submits (glob and
// hash placement), the merged jstat-all read, the mass delete, misrouted-id
// rejection at both the router and the server, the jstat local-read fast
// path, and a federation built from a deployment file.
#include "fed/router.h"

#include <gtest/gtest.h>

#include "joshua/config_file.h"
#include "testutil.h"

namespace {

joshua::ClusterOptions fast_fed(int shards, int heads_per_shard,
                                int computes_per_shard) {
  joshua::ClusterOptions options = testutil::env_options();
  options.head_count = shards * heads_per_shard;
  options.compute_count = shards * computes_per_shard;
  options.shards.count = shards;
  options.cal = sim::fast_calibration();
  return options;
}

pbs::JobSpec queued_job(const std::string& queue,
                        sim::Duration run_time = sim::seconds(300)) {
  pbs::JobSpec spec;
  spec.name = "t";
  spec.queue = queue;
  spec.run_time = run_time;
  return spec;
}

pbs::JobId jsub_sync(joshua::Cluster& f, fed::Router& router,
                     pbs::JobSpec spec) {
  std::optional<pbs::SubmitResponse> resp;
  bool done = false;
  router.jsub(std::move(spec), [&](std::optional<pbs::SubmitResponse> r) {
    done = true;
    resp = r;
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  if (!resp || resp->status != pbs::Status::kOk) return pbs::kInvalidJob;
  return resp->job_id;
}

TEST(Federation, SingleShardMatchesMonolithicNumbering) {
  joshua::Cluster f(fast_fed(1, 2, 1));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);
  // No sharding: ids come out 1, 2, 3 exactly as a joshua::Client on the
  // same cluster gets them -- the behaviour-identical default the baselines
  // depend on.
  EXPECT_EQ(jsub_sync(f, router, queued_job("batch")), 1u);
  EXPECT_EQ(jsub_sync(f, router, queued_job("debug")), 2u);
  EXPECT_EQ(jsub_sync(f, router, queued_job("gpu")), 3u);
  EXPECT_EQ(router.stats().rejects.count(), 0u);
}

TEST(Federation, GlobRoutedSubmitsLandInOwningShards) {
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  options.shards.queues = {{"batch*"}, {"*"}};
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);

  pbs::JobId batch_id = jsub_sync(f, router, queued_job("batch"));
  pbs::JobId debug_id = jsub_sync(f, router, queued_job("debug"));
  ASSERT_NE(batch_id, pbs::kInvalidJob);
  ASSERT_NE(debug_id, pbs::kInvalidJob);
  EXPECT_EQ(router.layout().owner_of(batch_id), 0u);
  EXPECT_EQ(router.layout().owner_of(debug_id), 1u);
  EXPECT_EQ(batch_id, router.layout().first_id(0));
  EXPECT_EQ(debug_id, router.layout().first_id(1));

  // Every replica of the owning shard has the job; the other shard's
  // replicas have never heard of it -- the groups share nothing.
  for (size_t h = 0; h < f.head_count(); ++h) {
    bool owner = f.shard_of_head(h) == 0;
    EXPECT_EQ(f.pbs_server(h).find_job(batch_id).has_value(), owner)
        << "head " << h;
  }
}

TEST(Federation, JstatAllMergesShardsSortedById) {
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  options.shards.queues = {{"batch*"}, {"*"}};
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);

  pbs::JobId debug_id = jsub_sync(f, router, queued_job("debug"));
  pbs::JobId batch_id = jsub_sync(f, router, queued_job("batch"));
  ASSERT_NE(debug_id, pbs::kInvalidJob);
  ASSERT_NE(batch_id, pbs::kInvalidJob);

  std::optional<pbs::StatResponse> all;
  bool done = false;
  pbs::StatRequest req;  // job_id = 0: every shard
  router.jstat(req, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    all = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->status, pbs::Status::kOk);
  ASSERT_EQ(all->jobs.size(), 2u);
  // batch_id (shard 0's block) sorts before debug_id (shard 1's block)
  // even though the debug job was submitted first.
  EXPECT_EQ(all->jobs[0].id, batch_id);
  EXPECT_EQ(all->jobs[1].id, debug_id);
  EXPECT_EQ(router.stats().fanouts.count(), 1u);
  EXPECT_EQ(router.stats().fanout_reads.count(), 2u);
}

TEST(Federation, MassDeleteSpansShards) {
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  options.shards.queues = {{"batch*"}, {"*"}};
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);

  std::vector<pbs::JobId> ids;
  ids.push_back(jsub_sync(f, router, queued_job("batch")));
  ids.push_back(jsub_sync(f, router, queued_job("batch2")));
  ids.push_back(jsub_sync(f, router, queued_job("debug")));
  for (pbs::JobId id : ids) ASSERT_NE(id, pbs::kInvalidJob);

  std::optional<uint64_t> deleted;
  bool done = false;
  router.jdel_all([&](std::optional<uint64_t> n) {
    done = true;
    deleted = n;
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(120));
  ASSERT_TRUE(deleted.has_value());
  EXPECT_EQ(*deleted, 3u);
  EXPECT_EQ(router.stats().mass_deleted.count(), 3u);
  for (pbs::JobId id : ids) {
    auto job = f.pbs_server(0).find_job(id);
    if (!job) job = f.pbs_server(2).find_job(id);
    ASSERT_TRUE(job.has_value());
    EXPECT_TRUE(job->cancelled) << "job " << id;
  }
}

TEST(Federation, MisroutedIdsRejectedAtBothLayers) {
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);
  pbs::JobId id = jsub_sync(f, router, queued_job("batch"));
  ASSERT_NE(id, pbs::kInvalidJob);

  // Router layer: an id beyond every shard's block never touches the wire.
  pbs::JobId impossible = router.layout().first_id(2) + 7;
  std::optional<pbs::SimpleResponse> resp;
  bool done = false;
  router.jdel(impossible, [&](std::optional<pbs::SimpleResponse> r) {
    done = true;
    resp = r;
  });
  EXPECT_TRUE(done) << "rejected locally, synchronously";
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, pbs::Status::kUnknownJob);
  EXPECT_EQ(router.stats().rejects.count(), 1u);

  // Server layer: a direct client asking the wrong shard for a perfectly
  // valid id is turned away before the ordered path.
  uint32_t owner = *router.layout().owner_of(id);
  std::optional<pbs::StatResponse> stat;
  done = false;
  pbs::StatRequest req;
  req.job_id = id;
  router.client(1 - owner).jstat(req, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    stat = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->status, pbs::Status::kUnknownJob);
  uint64_t shard_rejects = 0;
  for (size_t h = 0; h < f.head_count(); ++h)
    shard_rejects += f.joshua_server(h).stats().shard_rejects.count();
  EXPECT_EQ(shard_rejects, 1u);
}

TEST(Federation, JstatLocalFastPathSkipsOrdering) {
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  options.jstat_local = true;
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);
  pbs::JobId id = jsub_sync(f, router, queued_job("batch"));
  ASSERT_NE(id, pbs::kInvalidJob);

  uint64_t ordered_before = 0;
  for (size_t h = 0; h < f.head_count(); ++h)
    ordered_before += f.joshua_server(h).stats().commands_executed.count();

  std::optional<pbs::StatResponse> stat;
  bool done = false;
  pbs::StatRequest req;
  req.job_id = id;
  router.jstat(req, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    stat = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(stat.has_value());
  ASSERT_EQ(stat->status, pbs::Status::kOk);
  ASSERT_EQ(stat->jobs.size(), 1u);
  EXPECT_EQ(stat->jobs[0].id, id);

  uint64_t served_local = 0, ordered_after = 0;
  for (size_t h = 0; h < f.head_count(); ++h) {
    served_local += f.joshua_server(h).core_stats().local_reads.count();
    ordered_after += f.joshua_server(h).stats().commands_executed.count();
  }
  EXPECT_EQ(served_local, 1u) << "answered off the local replica";
  EXPECT_EQ(ordered_after, ordered_before)
      << "the read never entered the ordered path";
}

TEST(Federation, BatchedOrderingKeepsShardInvariants) {
  // The batching/window knobs must reach every shard's group and must not
  // disturb the per-shard replication invariants: every replica of a shard
  // agrees on its job set, no job leaks across shards, all submits land.
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  options.order_batch = 64;
  options.order_window = 16;
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  for (size_t h = 0; h < f.head_count(); ++h) {
    EXPECT_EQ(f.joshua_server(h).group().config().order_batch, 64u);
    EXPECT_EQ(f.joshua_server(h).group().config().inflight_window, 16u);
  }

  fed::Router router(f);
  std::vector<pbs::JobId> ids;
  for (int i = 0; i < 24; ++i) {
    pbs::JobId id =
        jsub_sync(f, router, queued_job("q" + std::to_string(i % 6)));
    ASSERT_NE(id, pbs::kInvalidJob) << "submit " << i;
    ids.push_back(id);
  }
  f.sim().run_for(sim::seconds(2));  // let the ordered commands settle

  for (pbs::JobId id : ids) {
    std::optional<uint32_t> owner = router.layout().owner_of(id);
    ASSERT_TRUE(owner.has_value()) << "job " << id;
    for (size_t h = 0; h < f.head_count(); ++h) {
      EXPECT_EQ(f.pbs_server(h).find_job(id).has_value(),
                f.shard_of_head(h) == owner)
          << "job " << id << " at head " << h;
    }
  }
}

TEST(Federation, SurvivesHeadLossPerShard) {
  joshua::ClusterOptions options = fast_fed(2, 2, 1);
  joshua::Cluster f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);
  ASSERT_NE(jsub_sync(f, router, queued_job("batch")), pbs::kInvalidJob);

  // Kill one head of shard 0; the shard reforms with its survivor and both
  // shards keep accepting commands. Shard 1 never notices.
  f.faults().crash_at(f.head_hosts()[0], f.sim().now() + sim::msec(10));
  f.sim().run_for(sim::msec(20));
  ASSERT_TRUE(f.run_until_converged());
  EXPECT_NE(jsub_sync(f, router, queued_job("batch")), pbs::kInvalidJob);
  EXPECT_NE(jsub_sync(f, router, queued_job("other")), pbs::kInvalidJob);
}

/// The deployment-file example from joshua/config_file.h's header.
constexpr const char* kExampleDeployment = R"(
  heads = 4
  computes = 2
  transfer = replay
  auto_rejoin = false
  quirk_mom = false
  require_majority = false
  seed = 1
  scheduling {
    policy = fifo          # fifo | backfill | priority | preempt
    exclusive = true       # also: selector (firstfit | replica), aging_s
  }
  gcs {
    heartbeat_ms = 100
    suspect_ms = 500
    flush_ms = 1200
  }
  shards {
    count = 2
    stride = 4294967296
    shard 0 {
      heads = {0, 1}
      queues = {"batch*"}
    }
    shard 1 {
      heads = {2, 3}
      queues = {"*"}
    }
  }
)";

/// Submit to `queue` through the router; the job must land in `owner`'s id
/// block and exist on exactly `owner`'s heads.
void expect_owned_by(joshua::Cluster& f, fed::Router& router,
                     const std::string& queue, uint32_t owner) {
  pbs::JobId id = jsub_sync(f, router, queued_job(queue));
  ASSERT_NE(id, pbs::kInvalidJob) << queue;
  EXPECT_EQ(router.layout().owner_of(id), owner) << queue;
  EXPECT_EQ(id, router.layout().first_id(owner)) << queue;
  f.sim().run_for(sim::seconds(1));  // every replica applies the submit
  for (size_t h = 0; h < f.head_count(); ++h)
    EXPECT_EQ(f.pbs_server(h).find_job(id).has_value(),
              f.shard_of_head(h) == owner)
        << queue << " at head " << h;
}

TEST(Federation, DeploymentFileBuildsShardedPlane) {
  joshua::ClusterOptions options =
      joshua::cluster_options_from_config(kExampleDeployment,
                                          testutil::env_options());
  options.cal = sim::fast_calibration();
  joshua::Cluster f(std::move(options));
  ASSERT_EQ(f.shard_count(), 2u);
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);
  expect_owned_by(f, router, "batch1", 0);
  expect_owned_by(f, router, "debug", 1);
}

TEST(Federation, NonContiguousHeadListsAreHonoured) {
  std::string text = kExampleDeployment;
  text.replace(text.find("heads = {0, 1}"), 14, "heads = {0, 2}");
  text.replace(text.find("heads = {2, 3}"), 14, "heads = {1, 3}");
  joshua::ClusterOptions options =
      joshua::cluster_options_from_config(text, testutil::env_options());
  options.cal = sim::fast_calibration();
  joshua::Cluster f(std::move(options));
  EXPECT_EQ(f.shard_of_head(0), 0u);
  EXPECT_EQ(f.shard_of_head(1), 1u);
  EXPECT_EQ(f.shard_of_head(2), 0u) << "lists honoured, not re-split";
  EXPECT_EQ(f.shard_of_head(3), 1u);
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  EXPECT_EQ(f.joshua_server(2).group().view().size(), 2u);
  fed::Router router(f);
  expect_owned_by(f, router, "batch1", 0);
  expect_owned_by(f, router, "debug", 1);
}

}  // namespace
