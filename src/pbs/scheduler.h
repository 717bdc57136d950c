// The Maui-equivalent scheduling layer, split into plugins.
//
// The paper configures Maui for FIFO with exclusive cluster access "to
// produce deterministic scheduling behavior on all active head nodes" --
// that determinism is load-bearing for JOSHUA: every head must make the
// same launch decision from the same replicated state. The paper also
// notes "this restriction may be lifted in the future if deterministic
// allocation behavior can be assured". This is that lift, mirroring
// Slurm's sched/select plugin split:
//
//  - SchedPolicy decides queue ordering + admission (strict FIFO, EASY
//    backfill, priority with aging, priority + preemption). A policy is a
//    pure function of (job table, node states, now): no clocks other than
//    the `now` argument, no randomness, no internal state. That purity is
//    the whole determinism contract -- N replicas fed identical state make
//    identical decisions.
//  - NodeSelector decides placement: which concrete hosts (and disjoint
//    anti-affinity replica sets) a job gets, over a generalized NodeState
//    with node types, feature tags and slot counts.
//
// Both sides live in a registry keyed by name; `JOSHUA_SCHED` /
// `JOSHUA_SELECT` pick the defaults at process scope and the
// `scheduling {}` config-file section pins them per deployment. The
// fifo+firstfit+exclusive default reproduces the paper's (and the
// previous monolithic scheduler's) decisions exactly.
#pragma once

#include <map>
#include <memory>
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
  /// selector's business, not checked here).
  bool satisfies(const JobSpec& spec) const;
};

struct SchedulerConfig {
  /// Registry names; the Scheduler refuses a name nobody registered.
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

/// The free capacity a selector allocates from: (node, free slot count)
/// in node-table order. Selectors decrement entries as they place jobs.
struct FreeSlot {
  const NodeState* node = nullptr;
  uint32_t free = 0;
};
using FreePool = std::vector<FreeSlot>;

FreePool make_free_pool(const std::vector<NodeState>& nodes);
/// Distinct hosts in `pool` with a free slot that satisfy `spec`.
size_t eligible_hosts(const FreePool& pool, const JobSpec& spec);

/// Placement plugin: carve pairwise-disjoint replica node sets for `spec`
/// out of `pool` (consuming the slots used). Returns {} when the primary
/// set does not fit; with `replicate` false only the primary set is built
/// (backfill admissions run unreplicated). Implementations must be
/// deterministic functions of (pool, spec).
class NodeSelector {
 public:
  virtual ~NodeSelector() = default;
  virtual std::string_view name() const = 0;
  virtual std::vector<std::vector<sim::HostId>> select(FreePool& pool,
                                                       const JobSpec& spec,
                                                       bool replicate) const = 0;
};

struct SchedContext {
  const std::map<JobId, Job>& jobs;
  const std::vector<NodeState>& nodes;
  sim::Time now;
  const SchedulerConfig& config;
  const NodeSelector& selector;
};

/// Ordering/admission plugin. The determinism contract: `cycle` must be a
/// pure function of its context -- same jobs, nodes and now always produce
/// the same decisions, on every head, after any replay.
class SchedPolicy {
 public:
  virtual ~SchedPolicy() = default;
  virtual std::string_view name() const = 0;
  virtual SchedDecisions cycle(const SchedContext& ctx) const = 0;
};

// -- registry ---------------------------------------------------------------
// Built-ins register lazily on first lookup: policies "fifo", "backfill",
// "priority", "preempt"; selectors "firstfit", "replica". Additional
// plugins (tests, experiments) register at startup.

const SchedPolicy* find_sched_policy(std::string_view name);
const NodeSelector* find_node_selector(std::string_view name);
void register_sched_policy(std::unique_ptr<SchedPolicy> policy);
void register_node_selector(std::unique_ptr<NodeSelector> selector);
std::vector<std::string> sched_policy_names();
std::vector<std::string> node_selector_names();

/// Facade the PBS server drives: resolves the configured plugin pair once
/// and runs scheduling iterations through them.
class Scheduler {
 public:
  /// Throws std::invalid_argument for a policy or selector name nobody
  /// registered: a head never runs anything but its configured pair.
  explicit Scheduler(SchedulerConfig config);

  const SchedulerConfig& config() const { return config_; }
  const SchedPolicy& policy() const { return *policy_; }
  const NodeSelector& selector() const { return *selector_; }

  /// One scheduling iteration: which queued jobs start now (and where),
  /// which running jobs must be preempted first. Deterministic: depends
  /// only on the arguments.
  SchedDecisions cycle(const std::map<JobId, Job>& jobs,
                       const std::vector<NodeState>& nodes,
                       sim::Time now) const;

 private:
  SchedulerConfig config_;
  const SchedPolicy* policy_ = nullptr;
  const NodeSelector* selector_ = nullptr;
};

}  // namespace pbs
