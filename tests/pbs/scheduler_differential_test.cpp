// Differential test for pbs::Scheduler::cycle. The reference below is the
// per-policy scheduler written out longhand: one function per policy, each
// with its own pool/queue/exclusive preamble, a sort whose comparator
// recomputes the effective priority on every comparison, and the two
// placement rules as separate functions. The table-driven cycle must make
// the same decisions, quirks included, on seeded random tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "pbs/scheduler.h"

namespace {

using namespace pbs;

using Sets = std::vector<std::vector<sim::HostId>>;

int64_t ref_priority(const Job& job, const SchedulerConfig& config,
                     sim::Time now) {
  int64_t p = job.spec.priority;
  if (config.priority_aging.us > 0 && now.us > job.submit_time.us)
    p += (now.us - job.submit_time.us) / config.priority_aging.us;
  return p;
}

struct Ref {
  const std::map<JobId, Job>& jobs;
  const std::vector<NodeState>& nodes;
  sim::Time now;
  const SchedulerConfig& config;

  std::vector<const Job*> eligible(bool by_priority) const {
    std::vector<const Job*> out;
    for (const auto& [id, job] : jobs)
      if (job.state == JobState::kQueued) out.push_back(&job);
    std::sort(out.begin(), out.end(), [&](const Job* a, const Job* b) {
      if (by_priority) {
        int64_t pa = ref_priority(*a, config, now);
        int64_t pb = ref_priority(*b, config, now);
        if (pa != pb) return pa > pb;
      }
      if (a->queue_rank != b->queue_rank) return a->queue_rank < b->queue_rank;
      return a->id < b->id;
    });
    return out;
  }

  static size_t hosts(const FreePool& pool, const JobSpec& spec) {
    size_t n = 0;
    for (const FreeSlot& s : pool)
      if (s.free > 0 && s.node->satisfies(spec)) ++n;
    return n;
  }

  Sets select(FreePool& pool, const JobSpec& spec, bool replicate) const {
    if (spec.nodes == 0) return {{}};
    std::vector<size_t> ix;
    for (size_t i = 0; i < pool.size(); ++i)
      if (pool[i].free > 0 && pool[i].node->satisfies(spec)) ix.push_back(i);
    size_t width = spec.nodes;
    if (ix.size() < width) return {};
    uint32_t want = spec.replicas == 0 ? 1 : spec.replicas;
    uint32_t fit = std::max<uint32_t>(
        1, static_cast<uint32_t>(ix.size() / width));
    uint32_t r = replicate ? std::min(want, fit) : 1;
    auto take = [&](size_t begin) {
      std::vector<sim::HostId> set;
      for (size_t k = 0; k < width; ++k) {
        set.push_back(pool[ix[begin + k]].node->host);
        --pool[ix[begin + k]].free;
      }
      return set;
    };
    Sets sets;
    if (config.selector == "firstfit") {
      for (uint32_t k = 0; k < r; ++k) sets.push_back(take(k * width));
    } else {
      sets.push_back(take(0));
      size_t tail = ix.size();
      for (uint32_t k = 1; k < r; ++k) {
        tail -= width;
        sets.push_back(take(tail));
      }
    }
    return sets;
  }

  void exclusive_launch(const std::vector<const Job*>& queue,
                        SchedDecisions& out) const {
    std::vector<sim::HostId> all;
    for (const NodeState& n : nodes) {
      if (!n.up) continue;
      if (!n.idle()) return;
      all.push_back(n.host);
    }
    if (all.empty()) return;
    LaunchDecision d{queue.front()->id, std::move(all), {}};
    d.replica_sets.push_back(d.nodes);
    out.launches.push_back(std::move(d));
  }

  size_t run_strict(const std::vector<const Job*>& queue, FreePool& pool,
                    SchedDecisions& out) const {
    size_t next = 0;
    while (next < queue.size()) {
      Sets sets = select(pool, queue[next]->spec, true);
      if (sets.empty()) break;
      LaunchDecision d;
      d.job = queue[next]->id;
      d.replica_sets = std::move(sets);
      d.nodes = d.replica_sets.front();
      out.launches.push_back(std::move(d));
      ++next;
    }
    return next;
  }

  void easy_backfill(const std::vector<const Job*>& queue, size_t next,
                     FreePool& pool, SchedDecisions& out) const {
    const Job* blocked = queue[next];
    std::vector<std::pair<sim::Time, uint32_t>> releases;
    for (const auto& [id, job] : jobs) {
      if (job.state != JobState::kRunning) continue;
      sim::Time release = job.start_time + job.spec.walltime;
      if (release < now) release = now;
      releases.emplace_back(release, job.spec.nodes);
    }
    std::sort(releases.begin(), releases.end());
    size_t avail = hosts(pool, blocked->spec);
    sim::Time shadow = sim::kTimeInfinity;
    for (const auto& [when, count] : releases) {
      avail += count;
      if (avail >= blocked->spec.nodes) {
        shadow = when;
        break;
      }
    }
    size_t spare =
        avail >= blocked->spec.nodes ? avail - blocked->spec.nodes : 0;
    auto exhausted = [&] {
      for (const FreeSlot& s : pool)
        if (s.free > 0) return false;
      return true;
    };
    for (size_t i = next + 1; i < queue.size() && !exhausted(); ++i) {
      const Job* c = queue[i];
      if (c->spec.nodes > hosts(pool, c->spec)) continue;
      bool before = now + c->spec.walltime <= shadow;
      bool in_spare = c->spec.nodes <= spare;
      if (!before && !in_spare) continue;
      Sets sets = select(pool, c->spec, false);
      if (sets.empty()) continue;
      LaunchDecision d;
      d.job = c->id;
      d.replica_sets = std::move(sets);
      d.nodes = d.replica_sets.front();
      if (!before && in_spare) spare -= c->spec.nodes;
      out.launches.push_back(std::move(d));
      ++out.backfilled;
    }
  }

  std::vector<const Job*> victims(int64_t floor) const {
    std::vector<const Job*> out;
    for (const auto& [id, job] : jobs)
      if (job.state == JobState::kRunning &&
          ref_priority(job, config, now) < floor)
        out.push_back(&job);
    std::sort(out.begin(), out.end(), [&](const Job* a, const Job* b) {
      int64_t pa = ref_priority(*a, config, now);
      int64_t pb = ref_priority(*b, config, now);
      if (pa != pb) return pa < pb;
      if (a->queue_rank != b->queue_rank) return a->queue_rank > b->queue_rank;
      return a->id > b->id;
    });
    return out;
  }

  // fifo, backfill and priority share one shape.
  SchedDecisions plain(bool by_priority, bool backfill) const {
    SchedDecisions out;
    FreePool pool = make_free_pool(nodes);
    if (pool.empty()) return out;
    std::vector<const Job*> queue = eligible(by_priority);
    if (queue.empty()) return out;
    if (config.exclusive_cluster) {
      size_t up = 0;
      for (const NodeState& n : nodes)
        if (n.up) ++up;
      if (pool.size() != up) return out;
      exclusive_launch(queue, out);
      return out;
    }
    size_t next = run_strict(queue, pool, out);
    if (backfill && next < queue.size()) easy_backfill(queue, next, pool, out);
    return out;
  }

  SchedDecisions preempt() const {
    SchedDecisions out;
    std::vector<const Job*> queue = eligible(true);
    if (queue.empty()) return out;
    if (config.exclusive_cluster) {
      exclusive_launch(queue, out);
      if (!out.launches.empty()) return out;
      std::vector<const Job*> v =
          victims(ref_priority(*queue.front(), config, now));
      size_t running = 0;
      for (const auto& [id, job] : jobs)
        if (job.active()) ++running;
      if (running == 0 || v.size() != running) return out;
      for (const Job* j : v) out.preemptions.push_back(j->id);
      return out;
    }
    FreePool pool = make_free_pool(nodes);
    size_t next = run_strict(queue, pool, out);
    if (next >= queue.size()) return out;
    const Job* blocked = queue[next];
    if (blocked->spec.nodes == 0) return out;
    size_t have = hosts(pool, blocked->spec);
    if (have >= blocked->spec.nodes) return out;
    std::vector<JobId> chosen;
    for (const Job* v : victims(ref_priority(*blocked, config, now))) {
      size_t gain = 0;
      for (const NodeState& n : nodes) {
        if (!n.up || !n.has(v->id) || !n.satisfies(blocked->spec)) continue;
        if (n.free_slots() > 0) continue;
        ++gain;
      }
      if (gain == 0) continue;
      chosen.push_back(v->id);
      have += gain;
      if (have >= blocked->spec.nodes) break;
    }
    if (have >= blocked->spec.nodes) out.preemptions = std::move(chosen);
    return out;
  }

  SchedDecisions cycle() const {
    if (config.policy == "fifo") return plain(false, false);
    if (config.policy == "backfill") return plain(false, true);
    if (config.policy == "priority") return plain(true, false);
    return preempt();
  }
};

struct Table {
  std::map<JobId, Job> jobs;
  std::vector<NodeState> nodes;
  sim::Time now;
};

/// A random job/node table. Small value ranges make ties on priority and
/// rank common; the states cover queued, held, running, exiting and done
/// jobs; node slots run 0-3 and some nodes are down.
Table random_table(std::mt19937_64& rng) {
  auto pick = [&rng](uint64_t n) { return rng() % n; };
  Table t;
  t.now = sim::Time{sim::seconds(1000).us + static_cast<int64_t>(pick(1000))};
  size_t node_count = 1 + pick(8);
  for (size_t i = 0; i < node_count; ++i) {
    NodeState n;
    n.host = static_cast<sim::HostId>(10 + i);
    n.up = pick(5) != 0;
    n.attrs.slots = static_cast<uint32_t>(pick(8) == 0 ? 0 : 1 + pick(3));
    if (pick(4) == 0) n.attrs.type = "gpu";
    t.nodes.push_back(std::move(n));
  }
  // Some tables have no active job, so exclusive admission can fire.
  const bool any_active = pick(3) != 0;
  size_t job_count = pick(40);  // past 16, std::sort stops being stable
  for (size_t k = 0; k < job_count; ++k) {
    Job j;
    j.id = static_cast<JobId>(1 + pick(80));
    if (t.jobs.count(j.id)) continue;
    j.queue_rank = pick(6);
    j.spec.nodes = static_cast<uint32_t>(pick(4));  // 0-node jobs included
    j.spec.replicas = static_cast<uint32_t>(pick(4));
    j.spec.priority = static_cast<int32_t>(pick(3));
    j.spec.walltime = sim::seconds(1 + static_cast<int64_t>(pick(600)));
    if (pick(6) == 0) j.spec.node_type = "gpu";
    j.submit_time = sim::Time{static_cast<int64_t>(pick(sim::seconds(1000).us))};
    j.start_time = sim::Time{static_cast<int64_t>(pick(sim::seconds(1000).us))};
    switch (pick(any_active ? 6 : 3)) {
      case 0:
      case 1: j.state = JobState::kQueued; break;
      case 2: j.state = pick(2) ? JobState::kHeld : JobState::kComplete; break;
      case 3:
      case 4: j.state = JobState::kRunning; break;
      default: j.state = JobState::kExiting; break;
    }
    if (j.active()) {
      // Occupy free slots, wherever they are (down nodes included).
      uint32_t width = std::max<uint32_t>(j.spec.nodes, 1);
      for (NodeState& n : t.nodes) {
        if (width == 0) break;
        if (n.free_slots() == 0 || pick(2) == 0) continue;
        n.assign(j.id);
        --width;
      }
    }
    t.jobs[j.id] = j;
  }
  return t;
}

void expect_same(const SchedDecisions& got, const SchedDecisions& want,
                 const std::string& where) {
  ASSERT_EQ(got.launches.size(), want.launches.size()) << where;
  for (size_t i = 0; i < want.launches.size(); ++i) {
    EXPECT_EQ(got.launches[i].job, want.launches[i].job) << where;
    EXPECT_EQ(got.launches[i].nodes, want.launches[i].nodes) << where;
    EXPECT_EQ(got.launches[i].replica_sets, want.launches[i].replica_sets)
        << where;
  }
  EXPECT_EQ(got.preemptions, want.preemptions) << where;
  EXPECT_EQ(got.backfilled, want.backfilled) << where;
}

TEST(SchedulerDifferential, MatchesRecomputingReference) {
  std::mt19937_64 rng(20261);
  size_t launches = 0, empty_sets = 0, extra_sets = 0, preemptions = 0,
         backfilled = 0, reorders = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Table t = random_table(rng);
    // Aging off, in 7 s or in 60 s steps. With aging on, each table is also
    // scheduled one microsecond before and at the next aging boundary of
    // two of its jobs, so effective priorities cross between cycles.
    constexpr int64_t kAgingSeconds[] = {0, 7, 60};
    SchedulerConfig config;
    config.priority_aging = sim::seconds(kAgingSeconds[rng() % 3]);
    std::vector<sim::Time> nows = {t.now};
    for (int k = 0; k < 2 && config.priority_aging.us > 0 && !t.jobs.empty();
         ++k) {
      auto job = t.jobs.begin();
      std::advance(job, static_cast<long>(rng() % t.jobs.size()));
      const int64_t step = config.priority_aging.us;
      const int64_t submit = job->second.submit_time.us;
      const int64_t boundary =
          submit + ((t.now.us - submit) / step + 1) * step;
      nows.push_back(sim::Time{boundary - 1});
      nows.push_back(sim::Time{boundary});
    }
    for (const std::string& policy : sched_policy_names()) {
      for (const std::string& selector : node_selector_names()) {
        for (bool exclusive : {false, true}) {
          config.policy = policy;
          config.selector = selector;
          config.exclusive_cluster = exclusive;
          Scheduler sched(config);
          for (sim::Time now : nows) {
            Ref ref{t.jobs, t.nodes, now, config};
            SchedDecisions want = ref.cycle();
            SchedDecisions got = sched.cycle(t.jobs, t.nodes, now);
            expect_same(got, want,
                        "trial " + std::to_string(trial) + " " + policy + "/" +
                            selector + (exclusive ? "/exclusive" : "") +
                            " at " + std::to_string(now.us));
            launches += want.launches.size();
            for (const LaunchDecision& d : want.launches) {
              empty_sets += d.nodes.empty();
              extra_sets += d.replica_sets.size() - 1;
            }
            preemptions += want.preemptions.size();
            backfilled += want.backfilled;
            if (policy == "priority" && !want.launches.empty() &&
                want.launches.front().job != ref.eligible(false).front()->id)
              ++reorders;
          }
        }
      }
    }
  }
  // The tables must reach every path the cycle has.
  EXPECT_GT(launches, 0u);
  EXPECT_GT(empty_sets, 0u) << "0-node launches";
  EXPECT_GT(extra_sets, 0u) << "replica sets";
  EXPECT_GT(preemptions, 0u);
  EXPECT_GT(backfilled, 0u);
  EXPECT_GT(reorders, 0u) << "priority order differing from FIFO";
}

}  // namespace
