// The Maui-equivalent scheduling layer.
//
// The paper configures Maui for FIFO with exclusive cluster access "to
// produce deterministic scheduling behavior on all active head nodes" --
// that determinism is load-bearing for JOSHUA: every head must make the
// same launch decision from the same replicated state. The paper also
// notes "this restriction may be lifted in the future if deterministic
// allocation behavior can be assured". This is that lift, along Slurm's
// sched/select split, with both axes held as constant tables in
// scheduler.cpp:
//
//  - a policy fixes the queue order (strict FIFO, or effective priority
//    with aging) and what runs behind the first job that does not fit
//    (nothing, EASY backfill, or priority preemption): "fifo", "backfill",
//    "priority", "preempt";
//  - a selector fixes placement over a generalized NodeState (node types,
//    feature tags, slot counts): "firstfit" carves a job's disjoint
//    anti-affinity replica sets off the front of the eligible hosts,
//    "replica" takes the extra sets off the back.
//
// Scheduler::cycle is a pure function of (job table, node states, now): no
// clock other than `now`, no randomness, no state between cycles. That
// purity is the whole determinism contract -- N replicas fed identical
// state make identical decisions. The `scheduling {}` config-file section
// names the pair per deployment. The fifo+firstfit+exclusive default
// reproduces the paper's (and the original monolithic scheduler's)
// decisions exactly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "pbs/job.h"

namespace pbs {

/// Static node attributes (heterogeneous clusters). Configured per mom via
/// ServerConfig::node_attrs; the defaults describe the paper's uniform
/// testbed.
struct NodeAttrs {
  std::string type;                   ///< "" = generic
  std::vector<std::string> features;  ///< arbitrary tags ("gpu", "bigmem")
  uint32_t slots = 1;                 ///< co-schedulable jobs per node
};

struct NodeState {
  sim::HostId host = sim::kInvalidHost;
  bool up = true;
  NodeAttrs attrs;
  /// Jobs occupying this node, one slot each (a single job never takes two
  /// slots of one node: replica sets need distinct hosts for anti-affinity).
  std::vector<JobId> running;

  bool idle() const { return running.empty(); }
  uint32_t used_slots() const { return static_cast<uint32_t>(running.size()); }
  uint32_t free_slots() const {
    uint32_t used = used_slots();
    return used >= attrs.slots ? 0 : attrs.slots - used;
  }
  bool has(JobId id) const;
  void assign(JobId id);
  void release(JobId id);
  /// Node type / feature admission for a spec (slot availability is the
  /// placement's business, not checked here).
  bool satisfies(const JobSpec& spec) const;
};

struct SchedulerConfig {
  /// Table names; the Scheduler refuses any other.
  std::string policy = "fifo";
  std::string selector = "firstfit";
  /// Paper configuration: each job gets the whole cluster (one job runs at
  /// a time, on all nodes).
  bool exclusive_cluster = true;
  /// Priority aging: queued jobs gain +1 effective priority per interval
  /// waited (priority/preempt policies only). Zero disables aging.
  sim::Duration priority_aging = sim::kDurationZero;
};

struct LaunchDecision {
  JobId job = kInvalidJob;
  std::vector<sim::HostId> nodes;  ///< first node is the mother superior
  /// One node set per replica; replica_sets[0] == nodes. The sets are
  /// pairwise disjoint (anti-affinity: a node failure takes out at most one
  /// replica). Fewer than spec.replicas sets when the cluster is too small
  /// -- replication is best-effort, never a reason not to start the job.
  std::vector<std::vector<sim::HostId>> replica_sets;
};

/// Everything one scheduling iteration decides. Preemptions are *requests*:
/// the server routes them through the ordered stream (kPreempt group op)
/// so every head requeues the victim at the same point of the command
/// sequence; the preempting job then launches in a later cycle against the
/// freed nodes.
struct SchedDecisions {
  std::vector<LaunchDecision> launches;
  std::vector<JobId> preemptions;  ///< running jobs to requeue, in order
  uint32_t backfilled = 0;         ///< launches admitted out of FIFO order
};

/// The free capacity placement allocates from: (node, free slot count) in
/// node-table order. Placement decrements entries as it places jobs.
struct FreeSlot {
  const NodeState* node = nullptr;
  uint32_t free = 0;
};
using FreePool = std::vector<FreeSlot>;

FreePool make_free_pool(const std::vector<NodeState>& nodes);

/// The names SchedulerConfig accepts, in table order.
std::vector<std::string> sched_policy_names();
std::vector<std::string> node_selector_names();

/// The scheduler the PBS server drives: resolves the configured policy and
/// selector once and runs scheduling iterations with them.
class Scheduler {
 public:
  /// Throws std::invalid_argument for an unknown policy or selector name: a
  /// head never runs anything but its configured pair.
  explicit Scheduler(SchedulerConfig config);

  const SchedulerConfig& config() const { return config_; }

  /// One scheduling iteration: which queued jobs start now (and where),
  /// which running jobs must be preempted first. Deterministic: depends
  /// only on the arguments.
  SchedDecisions cycle(const std::map<JobId, Job>& jobs,
                       const std::vector<NodeState>& nodes,
                       sim::Time now) const;

  /// Placement: carve pairwise-disjoint replica node sets for `spec` out of
  /// `pool`, consuming the slots used. Returns {} when the primary set does
  /// not fit; with `replicate` false only the primary set is built
  /// (backfill admissions run unreplicated). A 0-node spec gets one empty
  /// set.
  std::vector<std::vector<sim::HostId>> place(FreePool& pool,
                                              const JobSpec& spec,
                                              bool replicate) const;

 private:
  SchedulerConfig config_;
  size_t policy_;          ///< row of the policy table
  bool extras_from_back_;  ///< the selector's side for extra replica sets
};

}  // namespace pbs
