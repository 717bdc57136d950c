#include "pbs/scheduler.h"

#include <algorithm>
#include <stdexcept>

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

size_t eligible_hosts(const FreePool& pool, const JobSpec& spec) {
  size_t count = 0;
  for (const FreeSlot& s : pool) {
    if (s.free > 0 && s.node->satisfies(spec)) ++count;
  }
  return count;
}

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config)) {
  policy_ = find_sched_policy(config_.policy);
  if (policy_ == nullptr)
    throw std::invalid_argument("pbs::Scheduler: unknown scheduling policy '" +
                                config_.policy + "'");
  selector_ = find_node_selector(config_.selector);
  if (selector_ == nullptr)
    throw std::invalid_argument("pbs::Scheduler: unknown node selector '" +
                                config_.selector + "'");
}

SchedDecisions Scheduler::cycle(const std::map<JobId, Job>& jobs,
                                const std::vector<NodeState>& nodes,
                                sim::Time now) const {
  SchedContext ctx{jobs, nodes, now, config_, *selector_};
  return policy_->cycle(ctx);
}

}  // namespace pbs
