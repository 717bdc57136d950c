#include "pbs/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <tuple>

namespace pbs {

bool NodeState::has(JobId id) const {
  return std::find(running.begin(), running.end(), id) != running.end();
}

void NodeState::assign(JobId id) { running.push_back(id); }

void NodeState::release(JobId id) {
  running.erase(std::remove(running.begin(), running.end(), id),
                running.end());
}

bool NodeState::satisfies(const JobSpec& spec) const {
  if (!spec.node_type.empty() && spec.node_type != attrs.type) return false;
  for (const std::string& f : spec.features) {
    if (std::find(attrs.features.begin(), attrs.features.end(), f) ==
        attrs.features.end())
      return false;
  }
  return true;
}

FreePool make_free_pool(const std::vector<NodeState>& nodes) {
  FreePool pool;
  for (const NodeState& n : nodes) {
    if (n.up && n.free_slots() > 0) pool.push_back(FreeSlot{&n, n.free_slots()});
  }
  return pool;
}

namespace {

/// What a policy does behind the blocked head, the first queued job that
/// does not fit.
enum class AfterBlocked : uint8_t { kNothing, kBackfill, kPreempt };

struct PolicyRow {
  std::string_view name;
  bool by_priority;  ///< effective priority first, else strict FIFO
  AfterBlocked after;
};

// "fifo" and "backfill" reproduce the original monolithic scheduler's
// decisions exactly (the paper's determinism baseline and the EASY
// extension it hints at). "preempt" emits its victims as requests, which the
// server orders so every head requeues them at the same stream point.
constexpr PolicyRow kPolicies[] = {
    {"fifo", false, AfterBlocked::kNothing},
    {"backfill", false, AfterBlocked::kBackfill},
    {"priority", true, AfterBlocked::kNothing},
    {"preempt", true, AfterBlocked::kPreempt},
};

struct SelectorRow {
  std::string_view name;
  bool extras_from_back;
};

// "firstfit" is the original scheduler's placement byte for byte. "replica"
// carves the extra sets off the back so the contiguous front stays free for
// backfill to flow around the replicas.
constexpr SelectorRow kSelectors[] = {{"firstfit", false}, {"replica", true}};

template <typename Row, size_t N>
size_t row_of(const Row (&rows)[N], std::string_view name, const char* what) {
  for (size_t i = 0; i < N; ++i)
    if (rows[i].name == name) return i;
  throw std::invalid_argument(std::string("pbs::Scheduler: unknown ") + what +
                              " '" + std::string(name) + "'");
}

template <typename Row, size_t N>
std::vector<std::string> names_of(const Row (&rows)[N]) {
  std::vector<std::string> names;
  for (const Row& row : rows) names.emplace_back(row.name);
  return names;
}

/// Submit-time priority plus aging credit: +1 per `aging` waited. Integer
/// arithmetic on microsecond counts keeps it bit-identical across heads
/// regardless of when each one runs its cycle relative to `now`.
int64_t effective_priority(const Job& job, sim::Duration aging, sim::Time now) {
  int64_t p = job.spec.priority;
  if (aging.us > 0 && now.us > job.submit_time.us)
    p += (now.us - job.submit_time.us) / aging.us;
  return p;
}

/// A job with its order key, computed once per cycle.
struct Keyed {
  int64_t priority;  ///< effective priority; 0 under FIFO order
  uint64_t rank;
  JobId id;
  const Job* job;
};

/// Queued jobs by descending priority; queue_rank then id break ties
/// deterministically.
std::vector<Keyed> order_queue(const std::map<JobId, Job>& jobs,
                               bool by_priority, sim::Duration aging,
                               sim::Time now) {
  std::vector<Keyed> queue;
  for (const auto& [id, job] : jobs) {
    if (job.state != JobState::kQueued) continue;
    int64_t p = by_priority ? effective_priority(job, aging, now) : 0;
    queue.push_back(Keyed{p, job.queue_rank, id, &job});
  }
  std::sort(queue.begin(), queue.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(b.priority, a.rank, a.id) <
           std::tie(a.priority, b.rank, b.id);
  });
  return queue;
}

/// Running jobs with strictly lower effective priority than `floor`,
/// cheapest victims first: lowest priority, then youngest (highest
/// queue_rank, highest id) -- preempting recent work wastes the least.
std::vector<JobId> preemption_candidates(const std::map<JobId, Job>& jobs,
                                         int64_t floor, sim::Duration aging,
                                         sim::Time now) {
  std::vector<Keyed> victims;
  for (const auto& [id, job] : jobs) {
    if (job.state != JobState::kRunning) continue;
    int64_t p = effective_priority(job, aging, now);
    if (p < floor) victims.push_back(Keyed{p, job.queue_rank, id, &job});
  }
  std::sort(victims.begin(), victims.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.priority, b.rank, b.id) <
           std::tie(b.priority, a.rank, a.id);
  });
  std::vector<JobId> ids;
  for (const Keyed& v : victims) ids.push_back(v.id);
  return ids;
}

size_t count_up(const std::vector<NodeState>& nodes) {
  return static_cast<size_t>(std::count_if(
      nodes.begin(), nodes.end(), [](const NodeState& n) { return n.up; }));
}

/// Distinct hosts in `pool` with a free slot that satisfy `spec`.
size_t eligible_hosts(const FreePool& pool, const JobSpec& spec) {
  size_t count = 0;
  for (const FreeSlot& s : pool) {
    if (s.free > 0 && s.node->satisfies(spec)) ++count;
  }
  return count;
}

bool pool_exhausted(const FreePool& pool) {
  for (const FreeSlot& s : pool)
    if (s.free > 0) return false;
  return true;
}

LaunchDecision launch(JobId job, std::vector<std::vector<sim::HostId>> sets) {
  LaunchDecision d;
  d.job = job;
  d.nodes = sets.front();
  d.replica_sets = std::move(sets);
  return d;
}

/// The paper's exclusive-cluster admission: the head job launches iff every
/// up node is idle, and it gets all of them (one replica set -- exclusive
/// access leaves no disjoint node set for a second replica).
bool exclusive_launch(const std::vector<NodeState>& nodes, JobId head,
                      SchedDecisions& out) {
  std::vector<sim::HostId> all;
  for (const NodeState& n : nodes) {
    if (!n.up) continue;
    if (!n.idle()) return false;
    all.push_back(n.host);
  }
  if (all.empty()) return false;
  out.launches.push_back(launch(head, {std::move(all)}));
  return true;
}

/// EASY backfill behind the blocked job `queue[next]`: compute its shadow
/// time from walltime estimates and admit later jobs iff they fit in the
/// hole without delaying it. Backfilled jobs run unreplicated -- extra
/// replica sets would eat into the shadow-time budget.
void easy_backfill(const Scheduler& sched, const std::map<JobId, Job>& jobs,
                   sim::Time now, const std::vector<Keyed>& queue, size_t next,
                   FreePool& pool, SchedDecisions& out) {
  const JobSpec& blocked = queue[next].job->spec;
  std::vector<std::pair<sim::Time, uint32_t>> releases;  // (when, node count)
  for (const auto& [id, job] : jobs) {
    (void)id;
    if (job.state != JobState::kRunning) continue;
    sim::Time release = job.start_time + job.spec.walltime;
    if (release < now) release = now;  // overran its estimate
    releases.emplace_back(release, job.spec.nodes);
  }
  std::sort(releases.begin(), releases.end());
  size_t avail = eligible_hosts(pool, blocked);
  sim::Time shadow = sim::kTimeInfinity;
  for (const auto& [when, count] : releases) {
    avail += count;
    if (avail >= blocked.nodes) {
      shadow = when;
      break;
    }
  }
  // Nodes free at the shadow instant that the blocked job will NOT need.
  size_t spare_at_shadow =
      avail >= blocked.nodes ? avail - blocked.nodes : 0;

  for (size_t i = next + 1; i < queue.size() && !pool_exhausted(pool); ++i) {
    const JobSpec& candidate = queue[i].job->spec;
    if (candidate.nodes > eligible_hosts(pool, candidate)) continue;
    bool fits_before_shadow = now + candidate.walltime <= shadow;
    bool fits_spare = candidate.nodes <= spare_at_shadow;
    if (!fits_before_shadow && !fits_spare) continue;
    auto sets = sched.place(pool, candidate, false);
    if (sets.empty()) continue;
    if (!fits_before_shadow && fits_spare) {
      // Runs past the shadow but on nodes the blocked job will not use.
      spare_at_shadow -= candidate.nodes;
    }
    out.launches.push_back(launch(queue[i].id, std::move(sets)));
    ++out.backfilled;
  }
}

/// Would requeuing lower-priority running jobs free enough hosts for the
/// blocked head? All-or-nothing: partial preemption wastes completed work
/// without unblocking anything. The launch itself happens on a later cycle,
/// once the ordered requeues have been applied.
void preempt_for(const Keyed& blocked, const std::map<JobId, Job>& jobs,
                 const std::vector<NodeState>& nodes, const FreePool& pool,
                 sim::Duration aging, sim::Time now, SchedDecisions& out) {
  const JobSpec& spec = blocked.job->spec;
  size_t have = eligible_hosts(pool, spec);
  if (have >= spec.nodes) return;  // selector constraint gap
  std::vector<JobId> chosen;
  for (JobId v : preemption_candidates(jobs, blocked.priority, aging, now)) {
    size_t gain = 0;
    for (const NodeState& n : nodes) {
      if (!n.up || !n.has(v) || !n.satisfies(spec)) continue;
      if (n.free_slots() > 0) continue;  // host already counted available
      ++gain;
    }
    if (gain == 0) continue;
    chosen.push_back(v);
    have += gain;
    if (have >= spec.nodes) break;
  }
  if (have >= spec.nodes) out.preemptions = std::move(chosen);
}

}  // namespace

std::vector<std::string> sched_policy_names() { return names_of(kPolicies); }
std::vector<std::string> node_selector_names() { return names_of(kSelectors); }

Scheduler::Scheduler(SchedulerConfig config)
    : config_(std::move(config)),
      policy_(row_of(kPolicies, config_.policy, "scheduling policy")),
      extras_from_back_(
          kSelectors[row_of(kSelectors, config_.selector, "node selector")]
              .extras_from_back) {}

std::vector<std::vector<sim::HostId>> Scheduler::place(FreePool& pool,
                                                       const JobSpec& spec,
                                                       bool replicate) const {
  // A zero-width request takes no nodes; one empty set keeps the legacy
  // behaviour (the server's launch() drops it, the queue moves on).
  if (spec.nodes == 0) return {{}};
  std::vector<size_t> ix;  // pool indices of eligible hosts, in pool order
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].free > 0 && pool[i].node->satisfies(spec)) ix.push_back(i);
  }
  const size_t width = spec.nodes;
  if (ix.size() < width) return {};
  // At least one set (the job itself), at most the requested factor.
  const size_t r =
      replicate ? std::min<size_t>(std::max(spec.replicas, 1u), ix.size() / width)
                : 1;
  std::vector<std::vector<sim::HostId>> sets(r);
  for (size_t k = 0; k < r; ++k) {
    // Sets taken from either end are disjoint by construction.
    size_t begin = extras_from_back_ && k > 0 ? ix.size() - k * width
                                              : k * width;
    sets[k].reserve(width);
    for (size_t j = begin; j < begin + width; ++j) {
      sets[k].push_back(pool[ix[j]].node->host);
      --pool[ix[j]].free;
    }
  }
  return sets;
}

SchedDecisions Scheduler::cycle(const std::map<JobId, Job>& jobs,
                                const std::vector<NodeState>& nodes,
                                sim::Time now) const {
  const PolicyRow& policy = kPolicies[policy_];
  const bool preempt = policy.after == AfterBlocked::kPreempt;
  const sim::Duration aging = config_.priority_aging;
  SchedDecisions out;
  // With no free slot nothing can launch: unless the policy may preempt,
  // skip ordering the queue (a deep backlog would pay it every cycle).
  FreePool pool = make_free_pool(nodes);
  if (pool.empty() && !preempt) return out;
  std::vector<Keyed> queue = order_queue(jobs, policy.by_priority, aging, now);
  if (queue.empty()) return out;

  if (config_.exclusive_cluster) {
    if (!preempt && pool.size() != count_up(nodes)) return out;
    if (exclusive_launch(nodes, queue.front().id, out) || !preempt) return out;
    // The whole cluster is the resource: the head preempts only if every
    // occupant is strictly lower priority (kExiting jobs are already on
    // their way out -- wait for them instead).
    std::vector<JobId> victims =
        preemption_candidates(jobs, queue.front().priority, aging, now);
    size_t active = static_cast<size_t>(std::count_if(
        jobs.begin(), jobs.end(),
        [](const auto& entry) { return entry.second.active(); }));
    if (victims.size() == active) out.preemptions = std::move(victims);
    return out;
  }

  // Launch from the head of the queue while placement finds room.
  size_t next = 0;
  for (; next < queue.size(); ++next) {
    auto sets = place(pool, queue[next].job->spec, true);
    if (sets.empty()) break;
    out.launches.push_back(launch(queue[next].id, std::move(sets)));
  }
  if (next == queue.size()) return out;
  if (policy.after == AfterBlocked::kBackfill)
    easy_backfill(*this, jobs, now, queue, next, pool, out);
  else if (preempt)
    preempt_for(queue[next], jobs, nodes, pool, aging, now, out);
  return out;
}

}  // namespace pbs
