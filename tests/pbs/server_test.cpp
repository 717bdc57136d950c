#include "pbs/server.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "pbs/pbs_harness.h"

namespace {

using pbstest::PbsHarness;
using namespace pbs;

/// Everything a server persists and transfers: counters and every job.
ServerState table_of(const Server& server) {
  return net::decode<ServerState>(server.dump_state_blob());
}

/// The table a restarted server recovers from `state`: jobs that were
/// running requeue (restart semantics after failover).
ServerState requeued(ServerState state) {
  for (auto& [id, job] : state.jobs) {
    if (!job.active()) continue;
    job.state = JobState::kQueued;
    job.exec_host = sim::kInvalidHost;
    job.replica_hosts.clear();
  }
  return state;
}

void restart_head(PbsHarness& h) {
  h.net.crash_host(h.head);
  h.sim.run_for(sim::seconds(1));
  h.net.restart_host(h.head);
}

/// Issue one qdel/qhold/qrls-style command and wait for its status.
template <class Issue>
Status await_status(PbsHarness& h, Issue issue) {
  std::optional<SimpleResponse> resp;
  bool done = false;
  issue([&](std::optional<SimpleResponse> r) {
    resp = r;
    done = true;
  });
  testutil::run_until(h.sim, [&] { return done; });
  return resp ? resp->status : Status::kInternal;
}

TEST(PbsServer, SubmitRunsToCompletion) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job());
  ASSERT_NE(id, kInvalidJob);
  EXPECT_TRUE(h.wait_state(id, JobState::kComplete));
  Job job = *h.server->find_job(id);
  EXPECT_EQ(job.exit_code, 0);
  EXPECT_GT(job.end_time, job.start_time);
  EXPECT_GE(job.start_time, job.submit_time);
  EXPECT_EQ(h.moms[0]->jobs_executed() + h.moms[1]->jobs_executed(), 1u);
}

TEST(PbsServer, JobIdsMonotonic) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId a = h.submit(client, h.quick_job());
  JobId b = h.submit(client, h.quick_job());
  JobId c = h.submit(client, h.quick_job());
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
}

TEST(PbsServer, FifoExclusiveRunsSequentially) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId a = h.submit(client, h.quick_job(sim::msec(300)));
  JobId b = h.submit(client, h.quick_job(sim::msec(300)));
  ASSERT_TRUE(h.wait_state(b, JobState::kComplete));
  Job ja = *h.server->find_job(a);
  Job jb = *h.server->find_job(b);
  EXPECT_GE(jb.start_time, ja.end_time)
      << "exclusive cluster: b must wait for a";
}

TEST(PbsServer, StatAllAndSingle) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId a = h.submit(client, h.quick_job());
  h.submit(client, h.quick_job());

  std::optional<StatResponse> all;
  client.qstat(StatRequest{}, [&](auto r) { all = r; });
  testutil::run_until(h.sim, [&] { return all.has_value(); });
  EXPECT_EQ(all->jobs.size(), 2u);

  std::optional<StatResponse> one;
  client.qstat(StatRequest{a, true}, [&](auto r) { one = r; });
  testutil::run_until(h.sim, [&] { return one.has_value(); });
  ASSERT_EQ(one->jobs.size(), 1u);
  EXPECT_EQ(one->jobs[0].id, a);

  std::optional<StatResponse> missing;
  client.qstat(StatRequest{999, true}, [&](auto r) { missing = r; });
  testutil::run_until(h.sim, [&] { return missing.has_value(); });
  EXPECT_EQ(missing->status, Status::kUnknownJob);
}

TEST(PbsServer, StatExcludesCompleteWhenAsked) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId a = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(h.wait_state(a, JobState::kComplete));
  h.submit(client, h.quick_job(sim::seconds(30)));
  std::optional<StatResponse> active;
  client.qstat(StatRequest{kInvalidJob, false}, [&](auto r) { active = r; });
  testutil::run_until(h.sim, [&] { return active.has_value(); });
  ASSERT_EQ(active->jobs.size(), 1u);
  EXPECT_NE(active->jobs[0].id, a);
}

TEST(PbsServer, DeleteQueuedJob) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId blocker = h.submit(client, h.quick_job(sim::seconds(60)));
  JobId victim = h.submit(client, h.quick_job());
  (void)blocker;
  std::optional<SimpleResponse> resp;
  client.qdel(victim, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  EXPECT_EQ(resp->status, Status::kOk);
  Job job = *h.server->find_job(victim);
  EXPECT_EQ(job.state, JobState::kComplete);
  EXPECT_TRUE(job.cancelled);
}

TEST(PbsServer, DeleteRunningJobKillsOnMom) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::seconds(60)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  std::optional<SimpleResponse> resp;
  client.qdel(id, [&](auto r) { resp = r; });
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete, sim::seconds(30)));
  Job job = *h.server->find_job(id);
  EXPECT_TRUE(job.cancelled);
  EXPECT_EQ(job.exit_code, 271) << "TORQUE signal-death convention";
}

TEST(PbsServer, DeleteUnknownAndDoubleDelete) {
  PbsHarness h;
  Client& client = h.make_client();
  std::optional<SimpleResponse> resp;
  client.qdel(42, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  EXPECT_EQ(resp->status, Status::kUnknownJob);

  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete));
  resp.reset();
  client.qdel(id, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  EXPECT_EQ(resp->status, Status::kInvalidState) << "already complete";
}

TEST(PbsServer, HoldPreventsStartUntilRelease) {
  PbsHarness h;
  Client& client = h.make_client();
  // Block the cluster briefly so the hold lands while queued.
  JobId blocker = h.submit(client, h.quick_job(sim::seconds(5)));
  (void)blocker;
  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  std::optional<SimpleResponse> resp;
  client.qhold(id, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  EXPECT_EQ(resp->status, Status::kOk);
  // The blocker finishes; the held job must NOT start.
  ASSERT_TRUE(h.wait_state(blocker, JobState::kComplete, sim::seconds(30)));
  h.sim.run_for(sim::seconds(2));
  EXPECT_EQ(h.server->find_job(id)->state, JobState::kHeld);

  resp.reset();
  client.qrls(id, [&](auto r) { resp = r; });
  EXPECT_TRUE(h.wait_state(id, JobState::kComplete, sim::seconds(30)));
}

TEST(PbsServer, HoldRunningJobRejected) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::seconds(60)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  std::optional<SimpleResponse> resp;
  client.qhold(id, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  EXPECT_EQ(resp->status, Status::kInvalidState);
}

TEST(PbsServer, SignalTerminatesRunningJob) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::seconds(60)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  std::optional<SimpleResponse> resp;
  client.qsig(id, 15, [&](auto r) { resp = r; });
  EXPECT_TRUE(h.wait_state(id, JobState::kComplete, sim::seconds(30)));
  EXPECT_TRUE(h.server->find_job(id)->cancelled);
}

TEST(PbsServer, BenignSignalDoesNotKill) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::seconds(2)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  std::optional<SimpleResponse> resp;
  client.qsig(id, 10 /*SIGUSR1*/, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  EXPECT_EQ(resp->status, Status::kOk);
  EXPECT_EQ(h.server->find_job(id)->state, JobState::kRunning);
  EXPECT_TRUE(h.wait_state(id, JobState::kComplete));
  EXPECT_FALSE(h.server->find_job(id)->cancelled);
}

TEST(PbsServer, MultiNodeJobAllocatesRequestedNodes) {
  auto tweak = [](ServerConfig& cfg) {
    cfg.sched.exclusive_cluster = false;
  };
  PbsHarness h(3, 1, tweak);
  Client& client = h.make_client();
  JobSpec spec = h.quick_job(sim::seconds(1));
  spec.nodes = 2;
  JobId id = h.submit(client, spec);
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  int busy = 0;
  for (const NodeState& n : h.server->nodes())
    if (n.has(id)) ++busy;
  EXPECT_EQ(busy, 2);
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete));
  for (const NodeState& n : h.server->nodes()) EXPECT_TRUE(n.idle());
}

// Mom-failover regression: a job requeued by heartbeat failover keeps its
// original queue_rank, so the FIFO policy relaunches it ahead of everything
// submitted after it (requeue is recovery, not a trip to the back of the
// line).
TEST(PbsServer, MomFailoverRequeuePreservesQueueRank) {
  auto tweak = [](ServerConfig& cfg) {
    cfg.heartbeat_interval = sim::msec(500);
    cfg.heartbeat_miss_limit = 2;
    cfg.heartbeat_timeout = sim::msec(300);
  };
  PbsHarness h(2, 1, tweak);
  Client& client = h.make_client();
  JobId victim = h.submit(client, h.quick_job(sim::seconds(60)));
  JobId later = h.submit(client, h.quick_job(sim::seconds(1)));
  ASSERT_TRUE(h.wait_state(victim, JobState::kRunning));
  uint64_t victim_rank = h.server->find_job(victim)->queue_rank;
  uint64_t later_rank = h.server->find_job(later)->queue_rank;
  ASSERT_LT(victim_rank, later_rank);

  sim::HostId exec = h.server->find_job(victim)->exec_host;
  h.net.crash_host(exec);
  ASSERT_TRUE(h.wait_state(victim, JobState::kQueued, sim::seconds(30)));
  EXPECT_EQ(h.server->find_job(victim)->queue_rank, victim_rank)
      << "requeue must not re-rank the job";

  // FIFO honours the preserved rank: the victim relaunches on the surviving
  // node before the later submission gets its turn.
  ASSERT_TRUE(h.wait_state(victim, JobState::kComplete, sim::seconds(200)));
  ASSERT_TRUE(h.wait_state(later, JobState::kComplete, sim::seconds(200)));
  EXPECT_GE(h.server->find_job(later)->start_time,
            h.server->find_job(victim)->start_time);
}

// One array submit expands into array_count independent sub-jobs with
// consecutive ids and indexed names; each runs and completes on its own.
TEST(PbsServer, ArraySubmitExpandsToSubJobs) {
  PbsHarness h;
  Client& client = h.make_client();
  JobSpec spec = h.quick_job(sim::msec(200));
  spec.name = "arr";
  spec.array_count = 3;
  std::optional<SubmitResponse> resp;
  client.qsub(spec, [&](auto r) { resp = r; });
  testutil::run_until(h.sim, [&] { return resp.has_value(); });
  ASSERT_EQ(resp->status, Status::kOk);
  EXPECT_EQ(resp->count, 3u);
  EXPECT_EQ(h.server->submissions(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    auto job = h.server->find_job(resp->job_id + i);
    ASSERT_TRUE(job.has_value()) << "sub-job " << i;
    EXPECT_EQ(job->spec.name, "arr[" + std::to_string(i) + "]");
    EXPECT_EQ(job->spec.array_index, static_cast<int32_t>(i));
    EXPECT_TRUE(h.wait_state(job->id, JobState::kComplete, sim::seconds(60)));
  }
}

// End-to-end preemption with the quiet kill: the victim is requeued for an
// urgent job, its killed first incarnation must NOT echo a completion
// report back (that would mark the requeued job cancelled-complete), and it
// finishes cleanly after relaunch -- exactly one completion ever.
TEST(PbsServer, PreemptedJobRelaunchesWithoutStaleCompletion) {
  auto tweak = [](ServerConfig& cfg) {
    cfg.sched.policy = "preempt";
    cfg.sched.exclusive_cluster = false;
  };
  PbsHarness h(2, 1, tweak);
  int victim_completions = 0;
  Client& client = h.make_client();
  JobSpec low = h.quick_job(sim::seconds(10));
  low.nodes = 2;
  low.priority = 0;
  JobId victim = h.submit(client, low);
  h.server->on_job_complete = [&](const Job& job) {
    if (job.id == victim) ++victim_completions;
  };
  ASSERT_TRUE(h.wait_state(victim, JobState::kRunning));

  JobSpec urgent = h.quick_job(sim::seconds(1));
  urgent.nodes = 2;
  urgent.priority = 5;
  JobId high = h.submit(client, urgent);
  ASSERT_TRUE(h.wait_state(high, JobState::kComplete, sim::seconds(60)));
  EXPECT_EQ(h.server->preempt_count(victim), 1u);

  ASSERT_TRUE(h.wait_state(victim, JobState::kComplete, sim::seconds(120)));
  Job done = *h.server->find_job(victim);
  EXPECT_FALSE(done.cancelled) << "stale kill report echoed into the requeue";
  EXPECT_EQ(done.exit_code, 0);
  EXPECT_EQ(victim_completions, 1);
  EXPECT_GE(done.start_time, h.server->find_job(high)->end_time)
      << "the urgent job ran on the freed nodes first";
}

TEST(PbsServer, RestartRecoversQueueAndRequeuesRunning) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId running = h.submit(client, h.quick_job(sim::seconds(120)));
  JobId queued = h.submit(client, h.quick_job(sim::msec(200)));
  ASSERT_TRUE(h.wait_state(running, JobState::kRunning));

  h.net.crash_host(h.head);
  h.sim.run_for(sim::seconds(1));
  h.net.restart_host(h.head);

  // Recovered queue: both jobs exist; the one that was running has been
  // requeued (restart semantics after failover).
  auto r = h.server->find_job(running);
  auto q = h.server->find_job(queued);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(q.has_value());
  EXPECT_NE(r->state, JobState::kComplete);
  // Everything eventually completes after recovery.
  EXPECT_TRUE(h.wait_state(queued, JobState::kComplete, sim::seconds(400)));
  EXPECT_TRUE(h.wait_state(running, JobState::kComplete, sim::seconds(400)));
}

TEST(PbsServer, DumpAndLoadStateRoundTrip) {
  PbsHarness h;
  Client& client = h.make_client();
  h.submit(client, h.quick_job(sim::seconds(60)));
  h.submit(client, h.quick_job(sim::seconds(60)));

  std::optional<DumpStateResponse> dump;
  client.dump_state([&](auto r) { dump = r; });
  testutil::run_until(h.sim, [&] { return dump.has_value(); });
  ASSERT_EQ(dump->status, Status::kOk);

  // Load into a second, fresh server.
  sim::HostId head2 = h.net.add_host("head2").id();
  pbs::ServerConfig cfg = pbstest::server_config();
  cfg.port = 15001;
  cfg.persist = false;
  pbs::Server server2(h.net, head2, cfg);
  server2.load_state_blob(dump->state);
  EXPECT_EQ(server2.jobs().size(), 2u);
  EXPECT_EQ(server2.submissions(), h.server->submissions());
}

// A LoadState blob that fails to decode must leave the server as it was:
// the whole blob is decoded before any of the table is replaced.
TEST(PbsServer, TruncatedLoadStateLeavesTableUntouched) {
  PbsHarness h;
  Client& client = h.make_client();
  for (int i = 0; i < 3; ++i) h.submit(client, h.quick_job(sim::seconds(60)));
  testutil::run_until(h.sim, [&] {
    return h.server->count_in_state(JobState::kRunning) == 1;
  });

  auto stat_all = [&] {
    std::optional<StatResponse> resp;
    client.qstat(StatRequest{}, [&](auto r) { resp = r; });
    testutil::run_until(h.sim, [&] { return resp.has_value(); });
    return resp;
  };
  std::optional<StatResponse> before = stat_all();
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->jobs.size(), 3u);

  sim::Payload blob = h.server->dump_state_blob();
  sim::Payload truncated = blob.slice(0, blob.size() - 5);
  std::optional<SimpleResponse> load;
  client.load_state(truncated, [&](auto r) { load = r; });
  testutil::run_until(h.sim, [&] { return load.has_value(); });
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->status, Status::kInternal);

  std::optional<StatResponse> after = stat_all();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->jobs == before->jobs) << "a failed load changed the table";
  EXPECT_EQ(h.server->count_in_state(JobState::kRunning), 1u);
  EXPECT_EQ(h.submit(client, h.quick_job(sim::seconds(60))), 4u)
      << "a failed load moved the job id counter";
}

// A crash after a mixed history recovers exactly the pre-crash table from
// the per-job records: every job, every counter, running jobs requeued.
TEST(PbsServer, RestartRecoversExactPreCrashTable) {
  auto tweak = [](ServerConfig& cfg) {
    cfg.sched.policy = "preempt";
    cfg.sched.exclusive_cluster = false;
  };
  PbsHarness h(2, 1, tweak);
  Client& client = h.make_client();

  JobId done = h.submit(client, h.quick_job(sim::msec(200)));
  ASSERT_TRUE(h.wait_state(done, JobState::kComplete));
  JobSpec wide = h.quick_job(sim::seconds(60));
  wide.nodes = 2;
  JobId victim = h.submit(client, wide);
  ASSERT_TRUE(h.wait_state(victim, JobState::kRunning));

  JobSpec array = h.quick_job(sim::seconds(60));
  array.array_count = 3;
  JobId base = h.submit(client, array);
  ASSERT_NE(base, kInvalidJob);
  EXPECT_EQ(await_status(h, [&](auto cb) { client.qhold(base, cb); }),
            Status::kOk);
  EXPECT_EQ(await_status(h, [&](auto cb) { client.qrls(base, cb); }),
            Status::kOk);
  EXPECT_EQ(await_status(h, [&](auto cb) { client.qdel(base + 1, cb); }),
            Status::kOk);

  // An urgent job preempts the victim (applied directly: no interceptor),
  // then is deleted while running.
  JobSpec urgent = wide;
  urgent.priority = 5;
  JobId high = h.submit(client, urgent);
  ASSERT_TRUE(h.wait_state(high, JobState::kRunning, sim::seconds(30)));
  EXPECT_EQ(h.server->preempt_count(victim), 1u);
  EXPECT_EQ(await_status(h, [&](auto cb) { client.qdel(high, cb); }),
            Status::kOk);
  ASSERT_TRUE(h.wait_state(high, JobState::kComplete, sim::seconds(30)));
  ASSERT_TRUE(h.wait_state(victim, JobState::kRunning, sim::seconds(30)));

  ServerState before = table_of(*h.server);
  ASSERT_EQ(before.jobs.size(), 6u);
  restart_head(h);
  EXPECT_TRUE(table_of(*h.server) == requeued(before))
      << "the recovered table differs from the pre-crash one";
  EXPECT_EQ(h.server->submissions(), before.submissions);
  EXPECT_EQ(h.submit(client, h.quick_job()), before.next_job_id);
}

TEST(PbsServer, RestartAfterResetRecoversEmptyTable) {
  PbsHarness h;
  Client& client = h.make_client();
  for (int i = 0; i < 3; ++i) h.submit(client, h.quick_job(sim::seconds(60)));
  h.server->reset_state();
  restart_head(h);
  EXPECT_TRUE(h.server->jobs().empty()) << "records of reset jobs survived";
  EXPECT_TRUE(table_of(*h.server) == ServerState{});
}

TEST(PbsServer, RestartAfterSmallerLoadRecoversThatTable) {
  PbsHarness small;
  Client& small_client = small.make_client();
  for (int i = 0; i < 2; ++i)
    small.submit(small_client, small.quick_job(sim::seconds(60)));
  sim::Payload blob = small.server->dump_state_blob();

  PbsHarness h;
  Client& client = h.make_client();
  for (int i = 0; i < 5; ++i) h.submit(client, h.quick_job(sim::seconds(60)));
  h.server->load_state_blob(blob);
  restart_head(h);
  EXPECT_TRUE(table_of(*h.server) ==
              requeued(net::decode<ServerState>(blob)))
      << "records of jobs missing from the loaded table survived";
}

TEST(PbsServer, RestartRecoversPreloadedJobs) {
  PbsHarness h;
  h.server->preload_queued(3, h.quick_job(sim::seconds(60)));
  ServerState before = table_of(*h.server);
  restart_head(h);
  EXPECT_EQ(h.server->jobs().size(), 3u);
  EXPECT_TRUE(table_of(*h.server) == before);
}

// The stat reply is encoded straight from the table; its bytes must be the
// ones the message codec gives for the same answer.
TEST(PbsServer, StatReplyBytesMatchMessageCodec) {
  PbsHarness h;
  Client& client = h.make_client();
  JobId first = h.submit(client, h.quick_job(sim::msec(100)));
  JobId second = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(h.wait_state(second, JobState::kComplete));
  JobId running = h.submit(client, h.quick_job(sim::seconds(600)));
  h.submit(client, h.quick_job(sim::seconds(600)));
  ASSERT_TRUE(h.wait_state(running, JobState::kRunning));

  struct Raw : net::RpcNode {
    using net::RpcNode::RpcNode;
    void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}
  } raw(h.net, h.login, 23500, "raw");
  auto stat_bytes = [&](StatRequest req) {
    std::optional<sim::Payload> reply;
    bool done = false;
    raw.call(sim::Endpoint{h.head, 15001}, net::encode(req),
             [&](std::optional<sim::Payload> r) {
               reply = r;
               done = true;
             });
    testutil::run_until(h.sim, [&] { return done; });
    return reply;
  };
  auto codec_bytes = [&](Status status, bool include_complete) {
    StatResponse resp{status, {}};
    for (const auto& [id, job] : h.server->jobs()) {
      if (include_complete || !job.terminal()) resp.jobs.push_back(job);
    }
    return net::encode(resp);
  };

  auto all = stat_bytes(StatRequest{});
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(*all == codec_bytes(Status::kOk, true));
  auto active = stat_bytes(StatRequest{kInvalidJob, false});
  ASSERT_TRUE(active.has_value());
  EXPECT_TRUE(*active == codec_bytes(Status::kOk, false));
  EXPECT_EQ(net::decode<StatResponse>(*active).jobs.size(), 2u);
  auto one = stat_bytes(StatRequest{first, true});
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(*one == net::encode(StatResponse{
                          Status::kOk, {*h.server->find_job(first)}}));
  auto unknown = stat_bytes(StatRequest{999, true});
  ASSERT_TRUE(unknown.has_value());
  EXPECT_TRUE(*unknown == net::encode(StatResponse{Status::kUnknownJob, {}}));
}

// A damaged record on disk must not half-install a table: recovery decodes
// every record first, and on any error the restarted server starts empty.
TEST(PbsServer, CorruptJobRecordLeavesTableEmpty) {
  using Disk = std::map<std::string, std::string>;
  const std::vector<std::pair<std::string, std::function<void(Disk&)>>>
      corruptions = {
          {"truncated record", [](Disk& d) { d.at("pbs.j/2").pop_back(); }},
          // Byte 11 is the top byte of the job name's length prefix.
          {"flipped byte", [](Disk& d) { d.at("pbs.j/2")[11] ^= 0x40; }},
          {"missing meta", [](Disk& d) { d.erase("pbs.meta"); }},
      };
  for (const auto& [what, corrupt] : corruptions) {
    SCOPED_TRACE(what);
    PbsHarness h;
    Client& client = h.make_client();
    for (int i = 0; i < 3; ++i)
      h.submit(client, h.quick_job(sim::seconds(60)));
    h.net.crash_host(h.head);
    corrupt(h.net.host(h.head).disk());
    EXPECT_NO_THROW(h.net.restart_host(h.head));
    EXPECT_TRUE(h.server->jobs().empty());
    EXPECT_EQ(h.server->submissions(), 0u);
    EXPECT_EQ(h.submit(client, h.quick_job()), 1u)
        << "a rejected recovery moved the job id counter";
  }
}

// Mirrors TruncatedLoadStateLeavesTableUntouched for storage: a recovery
// that fails to decode leaves the live table as it was, and no single
// flipped byte in a record crashes it or swaps one job for another.
TEST(PbsServer, CorruptRecordOnRecoverLeavesTableUntouched) {
  PbsHarness h;
  Client& client = h.make_client();
  for (int i = 0; i < 3; ++i) h.submit(client, h.quick_job(sim::seconds(60)));
  ServerState before = table_of(*h.server);
  std::string& record = h.net.host(h.head).disk().at("pbs.j/2");
  const std::string intact = record;

  record.resize(record.size() - 5);
  EXPECT_NO_THROW(h.server->recover());
  EXPECT_TRUE(table_of(*h.server) == before)
      << "a failed recovery changed the table";

  for (size_t i = 0; i < intact.size(); ++i) {
    record = intact;
    record[i] ^= 0x40;
    EXPECT_NO_THROW(h.server->recover()) << "byte " << i;
    std::set<JobId> ids;
    for (const auto& [id, job] : h.server->jobs()) ids.insert(job.id);
    EXPECT_EQ(ids, (std::set<JobId>{1, 2, 3})) << "byte " << i;
  }
}

TEST(PbsServer, CountInStateAndSubmissions) {
  PbsHarness h;
  Client& client = h.make_client();
  h.submit(client, h.quick_job(sim::seconds(60)));
  h.submit(client, h.quick_job(sim::seconds(60)));
  EXPECT_EQ(h.server->submissions(), 2u);
  testutil::run_until(h.sim, [&] {
    return h.server->count_in_state(JobState::kRunning) == 1;
  });
  EXPECT_EQ(h.server->count_in_state(JobState::kQueued), 1u);
}

}  // namespace
