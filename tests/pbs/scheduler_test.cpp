#include "pbs/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>

#include "testutil.h"

namespace {

using namespace pbs;

Job make_job(JobId id, uint64_t rank, uint32_t nodes = 1,
             JobState state = JobState::kQueued,
             sim::Duration walltime = sim::minutes(10)) {
  Job j;
  j.id = id;
  j.queue_rank = rank;
  j.spec.nodes = nodes;
  j.spec.walltime = walltime;
  j.state = state;
  return j;
}

std::vector<NodeState> make_nodes(int n) {
  std::vector<NodeState> nodes;
  for (int i = 0; i < n; ++i) {
    NodeState node;
    node.host = static_cast<sim::HostId>(i);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

SchedulerConfig cfg(const std::string& policy, bool exclusive,
                    const std::string& selector = "firstfit") {
  SchedulerConfig c;
  c.policy = policy;
  c.selector = selector;
  c.exclusive_cluster = exclusive;
  return c;
}

TEST(SchedulerFifo, ExclusiveClusterOneJobAtATime) {
  Scheduler sched(cfg("fifo", true));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1);
  jobs[2] = make_job(2, 2);
  auto decisions = sched.cycle(jobs, make_nodes(2), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 1u);
  EXPECT_EQ(decisions[0].nodes.size(), 2u) << "whole cluster allocated";
}

TEST(SchedulerFifo, ExclusiveBlocksWhileAnyNodeBusy) {
  Scheduler sched(cfg("fifo", true));
  std::map<JobId, Job> jobs;
  jobs[2] = make_job(2, 2);
  auto nodes = make_nodes(2);
  nodes[1].assign(1);
  EXPECT_TRUE(sched.cycle(jobs, nodes, sim::Time{0}).launches.empty());
}

TEST(SchedulerFifo, FifoOrderByRankNotId) {
  Scheduler sched(cfg("fifo", true));
  std::map<JobId, Job> jobs;
  jobs[5] = make_job(5, 1);  // earlier rank, higher id
  jobs[2] = make_job(2, 2);
  auto decisions = sched.cycle(jobs, make_nodes(1), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 5u);
}

TEST(SchedulerFifo, SkipsHeldAndTerminalJobs) {
  Scheduler sched(cfg("fifo", true));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 1, JobState::kHeld);
  jobs[2] = make_job(2, 2, 1, JobState::kComplete);
  jobs[3] = make_job(3, 3);
  auto decisions = sched.cycle(jobs, make_nodes(1), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 3u);
}

TEST(SchedulerFifo, NonExclusivePacksMultipleJobs) {
  Scheduler sched(cfg("fifo", false));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 2);
  jobs[2] = make_job(2, 2, 1);
  jobs[3] = make_job(3, 3, 2);  // does not fit after 1+2
  auto decisions = sched.cycle(jobs, make_nodes(4), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].job, 1u);
  EXPECT_EQ(decisions[0].nodes.size(), 2u);
  EXPECT_EQ(decisions[1].job, 2u);
}

TEST(SchedulerFifo, StrictFifoHeadBlocksTail) {
  Scheduler sched(cfg("fifo", false));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 4);  // needs 4, only 2 free
  jobs[2] = make_job(2, 2, 1);  // would fit, but FIFO blocks
  EXPECT_TRUE(sched.cycle(jobs, make_nodes(2), sim::Time{0}).launches.empty());
}

TEST(SchedulerFifo, DownNodesNotAllocated) {
  Scheduler sched(cfg("fifo", false));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 2);
  auto nodes = make_nodes(2);
  nodes[0].up = false;
  EXPECT_TRUE(sched.cycle(jobs, nodes, sim::Time{0}).launches.empty());
  jobs[1].spec.nodes = 1;
  auto decisions = sched.cycle(jobs, nodes, sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].nodes[0], 1u) << "only the up node";
}

TEST(SchedulerBackfill, SmallJobFillsHole) {
  Scheduler sched(cfg("backfill", false));
  std::map<JobId, Job> jobs;
  // Running job holds 2 of 4 nodes for another ~60s.
  Job running = make_job(1, 1, 2, JobState::kRunning, sim::seconds(60));
  running.start_time = sim::Time{0};
  jobs[1] = running;
  jobs[2] = make_job(2, 2, 4, JobState::kQueued, sim::minutes(10));  // blocked
  // Short small job fits before the blocked job's shadow time.
  jobs[3] = make_job(3, 3, 1, JobState::kQueued, sim::seconds(30));
  auto nodes = make_nodes(4);
  nodes[0].assign(1);
  nodes[1].assign(1);
  auto result = sched.cycle(jobs, nodes, sim::Time{0});
  ASSERT_EQ(result.launches.size(), 1u);
  EXPECT_EQ(result.launches[0].job, 3u);
  EXPECT_EQ(result.backfilled, 1u);
}

TEST(SchedulerBackfill, LongJobDoesNotDelayReservation) {
  Scheduler sched(cfg("backfill", false));
  std::map<JobId, Job> jobs;
  Job running = make_job(1, 1, 2, JobState::kRunning, sim::seconds(60));
  running.start_time = sim::Time{0};
  jobs[1] = running;
  jobs[2] = make_job(2, 2, 4, JobState::kQueued, sim::minutes(10));
  // Long job (10 min) on 1 node would outlive the shadow and the blocked
  // job needs all 4 nodes: must NOT backfill.
  jobs[3] = make_job(3, 3, 1, JobState::kQueued, sim::minutes(10));
  auto nodes = make_nodes(4);
  nodes[0].assign(1);
  nodes[1].assign(1);
  EXPECT_TRUE(sched.cycle(jobs, nodes, sim::Time{0}).launches.empty());
}

TEST(SchedulerBackfill, LongJobAllowedOnSpareNodes) {
  Scheduler sched(cfg("backfill", false));
  std::map<JobId, Job> jobs;
  // 5 nodes; a 2-node job runs, so 3 are free. The head job needs 4 and
  // blocks. At the shadow instant 5 nodes free up, the head takes 4,
  // leaving 1 spare -- a long 1-node job may run on it indefinitely.
  Job running = make_job(1, 1, 2, JobState::kRunning, sim::seconds(60));
  running.start_time = sim::Time{0};
  jobs[1] = running;
  jobs[2] = make_job(2, 2, 4, JobState::kQueued, sim::minutes(10));
  jobs[3] = make_job(3, 3, 1, JobState::kQueued, sim::hours(1));
  auto nodes = make_nodes(5);
  nodes[0].assign(1);
  nodes[1].assign(1);
  auto decisions = sched.cycle(jobs, nodes, sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 3u) << "spare capacity at shadow time";
}

// Satellite: a running job past its walltime estimate must have its release
// clamped to `now` -- a shadow time in the past would let backfill delay the
// blocked job indefinitely.
TEST(SchedulerBackfill, OverrunningJobReleaseClampedToNow) {
  Scheduler sched(cfg("backfill", false));
  std::map<JobId, Job> jobs;
  // Started at t=0 with a 60s estimate; it is now t=300s and it still runs.
  Job running = make_job(1, 1, 2, JobState::kRunning, sim::seconds(60));
  running.start_time = sim::Time{0};
  jobs[1] = running;
  jobs[2] = make_job(2, 2, 4, JobState::kQueued, sim::minutes(10));
  // 90s backfill candidate: with the clamp the shadow is `now` and nothing
  // may run in front of the blocked job (no spare at shadow either).
  jobs[3] = make_job(3, 3, 1, JobState::kQueued, sim::seconds(90));
  auto nodes = make_nodes(4);
  nodes[0].assign(1);
  nodes[1].assign(1);
  sim::Time now = sim::Time{sim::minutes(5).us};
  EXPECT_TRUE(sched.cycle(jobs, nodes, now).launches.empty())
      << "an overrunning job must not push the shadow into the past";
}

// Satellite property test: whatever the queue shape, EASY backfill never
// admits a job that delays the blocked head's shadow start.
TEST(SchedulerBackfill, BackfillNeverDelaysShadowProperty) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    int node_count = 3 + static_cast<int>(rng() % 6);  // 3..8
    auto nodes = make_nodes(node_count);
    std::map<JobId, Job> jobs;
    JobId id = 1;
    uint64_t rank = 1;
    // A few running jobs occupying a prefix of the cluster.
    int busy = static_cast<int>(rng() % node_count);
    int placed = 0;
    while (placed < busy) {
      uint32_t width = 1 + static_cast<uint32_t>(rng() % 2);
      if (placed + static_cast<int>(width) > busy) width = 1;
      Job r = make_job(id, rank, width, JobState::kRunning,
                       sim::seconds(30 + static_cast<int64_t>(rng() % 600)));
      r.start_time = sim::Time{0};
      for (uint32_t k = 0; k < width; ++k)
        nodes[static_cast<size_t>(placed + static_cast<int>(k))].assign(id);
      jobs[id] = r;
      ++id, ++rank, placed += static_cast<int>(width);
    }
    // Queued jobs; make the head wide so it blocks often.
    uint32_t head_width =
        static_cast<uint32_t>(node_count - (rng() % 2 == 0 ? 0 : 1));
    jobs[id] = make_job(id, rank++, head_width, JobState::kQueued,
                        sim::minutes(10));
    JobId blocked_id = id++;
    for (int q = 0; q < 6; ++q) {
      jobs[id] = make_job(
          id, rank++, 1 + static_cast<uint32_t>(rng() % 3), JobState::kQueued,
          sim::seconds(10 + static_cast<int64_t>(rng() % 900)));
      ++id;
    }

    sim::Time now{0};
    // Shadow: earliest instant the blocked head could start, from walltime
    // estimates, BEFORE any backfill decisions.
    size_t free_now = 0;
    for (const auto& n : nodes) free_now += n.free_slots();
    std::vector<std::pair<sim::Time, uint32_t>> releases;
    for (const auto& [jid, job] : jobs) {
      (void)jid;
      if (job.state != JobState::kRunning) continue;
      sim::Time release = job.start_time + job.spec.walltime;
      if (release < now) release = now;
      releases.emplace_back(release, job.spec.nodes);
    }
    std::sort(releases.begin(), releases.end());
    size_t avail = free_now;
    sim::Time shadow = sim::kTimeInfinity;
    for (const auto& [when, cnt] : releases) {
      avail += cnt;
      if (avail >= jobs[blocked_id].spec.nodes) {
        shadow = when;
        break;
      }
    }
    size_t spare =
        avail >= jobs[blocked_id].spec.nodes
            ? avail - jobs[blocked_id].spec.nodes
            : 0;

    Scheduler sched(cfg("backfill", false));
    auto result = sched.cycle(jobs, nodes, now);
    size_t spare_used = 0;
    for (const auto& d : result.launches) {
      if (d.job == blocked_id) continue;  // head launched: nothing blocked
      const Job& j = jobs[d.job];
      bool before_shadow = now + j.spec.walltime <= shadow;
      if (!before_shadow) spare_used += j.spec.nodes;
    }
    EXPECT_LE(spare_used, spare)
        << "trial " << trial
        << ": backfill past the shadow must fit in the blocked job's spare";
  }
}

// Satellite: JobSpec::priority must decide launch order under the priority
// policy (higher first), with queue_rank then id breaking ties.
TEST(SchedulerPriority, HighPrioritySubmittedLaterLaunchesFirst) {
  Scheduler sched(cfg("priority", false));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1);  // priority 0, earlier
  jobs[2] = make_job(2, 2);
  jobs[2].spec.priority = 10;  // later but urgent
  auto decisions = sched.cycle(jobs, make_nodes(1), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 2u) << "priority 10 beats priority 0";
}

TEST(SchedulerPriority, EqualPriorityFallsBackToFifo) {
  Scheduler sched(cfg("priority", false));
  std::map<JobId, Job> jobs;
  jobs[7] = make_job(7, 1);
  jobs[3] = make_job(3, 2);
  jobs[7].spec.priority = 5;
  jobs[3].spec.priority = 5;
  auto decisions = sched.cycle(jobs, make_nodes(1), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 7u) << "rank breaks the priority tie";
}

TEST(SchedulerPriority, AgingLiftsStarvedJobs) {
  SchedulerConfig c = cfg("priority", false);
  c.priority_aging = sim::seconds(10);  // +1 priority per 10s waited
  Scheduler sched(c);
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1);  // priority 0, submitted at t=0
  jobs[1].submit_time = sim::Time{0};
  jobs[2] = make_job(2, 2);
  jobs[2].spec.priority = 5;
  jobs[2].submit_time = sim::Time{sim::seconds(60).us};
  // At t=60s job 1 has aged +6: effective 6 > 5.
  auto decisions =
      sched.cycle(jobs, make_nodes(1), sim::Time{sim::seconds(60).us})
          .launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job, 1u) << "aging outran the static priority";
}

TEST(SchedulerPreempt, LowPriorityVictimRequeuedForUrgentJob) {
  Scheduler sched(cfg("preempt", false));
  std::map<JobId, Job> jobs;
  // Both nodes busy with priority-0 work; an urgent 2-node job arrives.
  for (JobId v = 1; v <= 2; ++v) {
    Job r = make_job(v, v, 1, JobState::kRunning);
    r.start_time = sim::Time{0};
    jobs[v] = r;
  }
  jobs[3] = make_job(3, 3, 2);
  jobs[3].spec.priority = 10;
  auto nodes = make_nodes(2);
  nodes[0].assign(1);
  nodes[1].assign(2);
  auto result = sched.cycle(jobs, nodes, sim::Time{0});
  EXPECT_TRUE(result.launches.empty()) << "launch happens after the requeue";
  ASSERT_EQ(result.preemptions.size(), 2u);
  // Cheapest victims first: equal priority, so youngest (highest rank).
  EXPECT_EQ(result.preemptions[0], 2u);
  EXPECT_EQ(result.preemptions[1], 1u);
}

TEST(SchedulerPreempt, AllOrNothingWhenGainInsufficient) {
  Scheduler sched(cfg("preempt", false));
  std::map<JobId, Job> jobs;
  // One preemptible job on 1 node, but the urgent job needs 3; the third
  // node is down, so even preempting everything cannot unblock it.
  Job r = make_job(1, 1, 1, JobState::kRunning);
  jobs[1] = r;
  jobs[2] = make_job(2, 2, 3);
  jobs[2].spec.priority = 10;
  auto nodes = make_nodes(3);
  nodes[0].assign(1);
  nodes[2].up = false;
  auto result = sched.cycle(jobs, nodes, sim::Time{0});
  EXPECT_TRUE(result.preemptions.empty())
      << "partial preemption wastes work without unblocking";
}

TEST(SchedulerPreempt, EqualPriorityNeverPreempted) {
  Scheduler sched(cfg("preempt", false));
  std::map<JobId, Job> jobs;
  Job r = make_job(1, 1, 1, JobState::kRunning);
  r.spec.priority = 5;
  jobs[1] = r;
  jobs[2] = make_job(2, 2, 1);
  jobs[2].spec.priority = 5;
  auto nodes = make_nodes(1);
  nodes[0].assign(1);
  auto result = sched.cycle(jobs, nodes, sim::Time{0});
  EXPECT_TRUE(result.preemptions.empty()) << "strictly-lower only";
}

TEST(SchedulerPreempt, ExclusiveClusterPreemptsWholeOccupancy) {
  Scheduler sched(cfg("preempt", true));
  std::map<JobId, Job> jobs;
  Job r = make_job(1, 1, 2, JobState::kRunning);
  jobs[1] = r;
  jobs[2] = make_job(2, 2, 1);
  jobs[2].spec.priority = 3;
  auto nodes = make_nodes(2);
  nodes[0].assign(1);
  nodes[1].assign(1);
  auto result = sched.cycle(jobs, nodes, sim::Time{0});
  EXPECT_TRUE(result.launches.empty());
  ASSERT_EQ(result.preemptions.size(), 1u);
  EXPECT_EQ(result.preemptions[0], 1u);
}

TEST(SchedulerSelector, ReplicaSetsAreDisjoint) {
  Scheduler sel(cfg("fifo", false, "replica"));
  auto nodes = make_nodes(6);
  FreePool pool = make_free_pool(nodes);
  JobSpec spec;
  spec.nodes = 2;
  spec.replicas = 3;
  auto sets = sel.place(pool, spec, true);
  ASSERT_EQ(sets.size(), 3u);
  std::set<sim::HostId> seen;
  for (const auto& set : sets) {
    ASSERT_EQ(set.size(), 2u);
    for (sim::HostId h : set)
      EXPECT_TRUE(seen.insert(h).second) << "host " << h << " reused";
  }
}

TEST(SchedulerSelector, ReplicaCarvesExtrasFromBack) {
  Scheduler sel(cfg("fifo", false, "replica"));
  auto nodes = make_nodes(6);
  FreePool pool = make_free_pool(nodes);
  JobSpec spec;
  spec.nodes = 1;
  spec.replicas = 2;
  auto sets = sel.place(pool, spec, true);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0][0], 0u) << "primary from the front";
  EXPECT_EQ(sets[1][0], 5u) << "replica from the back";
  // The contiguous middle stays free for backfill.
  for (size_t i = 1; i <= 4; ++i) EXPECT_EQ(pool[i].free, 1u);
}

TEST(SchedulerSelector, BackfillPacksAroundReplicas) {
  // End-to-end through the backfill policy: a replicated running job placed
  // front+back must leave the middle usable.
  Scheduler sched(cfg("backfill", false, "replica"));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 2);
  jobs[1].spec.replicas = 2;
  jobs[2] = make_job(2, 2, 2);
  auto decisions = sched.cycle(jobs, make_nodes(6), sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 2u);
  ASSERT_EQ(decisions[0].replica_sets.size(), 2u);
  EXPECT_EQ(decisions[0].replica_sets[0],
            (std::vector<sim::HostId>{0, 1}));
  EXPECT_EQ(decisions[0].replica_sets[1],
            (std::vector<sim::HostId>{4, 5}));
  EXPECT_EQ(decisions[1].nodes, (std::vector<sim::HostId>{2, 3}));
}

TEST(SchedulerHetero, NodeTypeRequestFiltersPlacement) {
  Scheduler sched(cfg("fifo", false));
  auto nodes = make_nodes(3);
  nodes[1].attrs.type = "gpu";
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 1);
  jobs[1].spec.node_type = "gpu";
  auto decisions = sched.cycle(jobs, nodes, sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].nodes, (std::vector<sim::HostId>{1}));
}

TEST(SchedulerHetero, FeatureRequestsAreConjunctive) {
  Scheduler sched(cfg("fifo", false));
  auto nodes = make_nodes(3);
  nodes[0].attrs.features = {"gpu"};
  nodes[2].attrs.features = {"gpu", "bigmem"};
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 1);
  jobs[1].spec.features = {"gpu", "bigmem"};
  auto decisions = sched.cycle(jobs, nodes, sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].nodes, (std::vector<sim::HostId>{2}));
  // No node has both features + a missing one: nothing launches.
  jobs[1].spec.features = {"gpu", "bigmem", "nvme"};
  EXPECT_TRUE(sched.cycle(jobs, nodes, sim::Time{0}).launches.empty());
}

TEST(SchedulerHetero, MultiSlotNodesCoScheduleJobs) {
  Scheduler sched(cfg("fifo", false));
  auto nodes = make_nodes(1);
  nodes[0].attrs.slots = 3;
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 1);
  jobs[2] = make_job(2, 2, 1);
  jobs[3] = make_job(3, 3, 1);
  jobs[4] = make_job(4, 4, 1);
  auto decisions = sched.cycle(jobs, nodes, sim::Time{0}).launches;
  ASSERT_EQ(decisions.size(), 3u) << "three slots, three jobs; fourth waits";
  for (const auto& d : decisions)
    EXPECT_EQ(d.nodes, (std::vector<sim::HostId>{0}));
}

TEST(SchedulerDeterminism, SameInputsSameDecisions) {
  // The paper's requirement: identical state at every head must produce
  // identical launch decisions -- for every registered policy.
  for (const std::string& policy : sched_policy_names()) {
    for (const std::string& selector : node_selector_names()) {
      Scheduler sched(cfg(policy, false, selector));
      std::map<JobId, Job> jobs;
      for (JobId id = 1; id <= 20; ++id) {
        jobs[id] = make_job(id, id, static_cast<uint32_t>(1 + id % 3));
        jobs[id].spec.priority = static_cast<int32_t>(id % 4);
      }
      auto nodes = make_nodes(6);
      auto d1 = sched.cycle(jobs, nodes, sim::Time{12345});
      auto d2 = sched.cycle(jobs, nodes, sim::Time{12345});
      ASSERT_EQ(d1.launches.size(), d2.launches.size());
      for (size_t i = 0; i < d1.launches.size(); ++i) {
        EXPECT_EQ(d1.launches[i].job, d2.launches[i].job);
        EXPECT_EQ(d1.launches[i].nodes, d2.launches[i].nodes);
      }
      EXPECT_EQ(d1.preemptions, d2.preemptions);
    }
  }
}

TEST(SchedulerRegistry, BuiltinsPresent) {
  auto has = [](const std::vector<std::string>& names, const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const char* p : {"fifo", "backfill", "priority", "preempt"})
    EXPECT_TRUE(has(sched_policy_names(), p)) << p;
  for (const char* s : {"firstfit", "replica"})
    EXPECT_TRUE(has(node_selector_names(), s)) << s;
  EXPECT_FALSE(has(sched_policy_names(), "nope"));
  EXPECT_FALSE(has(node_selector_names(), "nope"));
}

TEST(SchedulerRegistry, UnknownNamesThrow) {
  // No silent fifo/firstfit: a head runs its configured pair or nothing.
  EXPECT_THROW(Scheduler(cfg("no-such-policy", true)), std::invalid_argument);
  EXPECT_THROW(Scheduler(cfg("fifo", true, "no-such-selector")),
               std::invalid_argument);
}

TEST(SchedulerEdge, NoJobsNoDecisions) {
  Scheduler sched(testutil::env_options().sched);
  EXPECT_TRUE(
      sched.cycle({}, make_nodes(2), sim::Time{0}).launches.empty());
}

TEST(SchedulerEdge, NoNodesNoDecisions) {
  Scheduler sched(cfg("fifo", false));
  std::map<JobId, Job> jobs;
  jobs[1] = make_job(1, 1, 1);
  EXPECT_TRUE(sched.cycle(jobs, {}, sim::Time{0}).launches.empty());
}

}  // namespace
