// The TORQUE-equivalent PBS server: job queue, PBS state machine,
// scheduling cycles, mom control, persistence.
//
// This is the unmodified service JOSHUA wraps externally: it knows nothing
// about replication. Determinism (FIFO scheduling, ids assigned in request
// order) is what lets N replicas fed the same totally-ordered command
// stream stay identical -- the paper's core requirement for any service put
// behind symmetric active/active replication.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "net/rpc.h"
#include "pbs/protocol.h"
#include "pbs/scheduler.h"
#include "telemetry/metrics.h"

namespace sim {
struct Calibration;
}

namespace pbs {

struct ServerConfig {
  sim::Port port = 15001;
  std::string server_suffix = "cluster";
  /// Compute-node mom endpoints.
  std::vector<sim::Endpoint> moms;
  /// Static attributes per mom host (type / features / slots) for
  /// heterogeneous clusters; hosts not listed get the defaults.
  std::map<sim::HostId, NodeAttrs> node_attrs;
  SchedulerConfig sched;
  /// Largest job array one submit may expand to (larger requests are
  /// rejected, they would flood the ordered stream).
  uint32_t max_array_size = 4096;
  /// Periodic scheduling interval (Maui iteration).
  sim::Duration sched_interval = sim::msec(500);

  // CPU cost model.
  sim::Duration submit_proc = sim::msec(72);
  sim::Duration stat_proc = sim::msec(22);
  sim::Duration del_proc = sim::msec(30);
  sim::Duration sched_cycle_proc = sim::msec(12);

  /// Persist state so a restart recovers the queue (running jobs requeue,
  /// as after a TORQUE failover). Storage holds one record per job, as
  /// TORQUE's server_priv/jobs does, plus one meta record with the
  /// counters; a mutation rewrites only the records of the jobs it changed.
  /// Set checkpoint_interval > 0 to rewrite every record periodically
  /// instead of on every mutation (warm standby with possible rollback, the
  /// active/standby baseline of Section 2).
  bool persist = true;
  sim::Duration checkpoint_interval = sim::kDurationZero;
  /// Where to persist; when null the host's local disk is used. The
  /// active/standby baseline points both primary and standby at one shared
  /// map (the "shared stable storage" of Figure 2).
  std::shared_ptr<std::map<std::string, std::string>> shared_storage;

  sim::Duration mom_launch_timeout = sim::seconds(8);

  /// First job id this server hands out (and returns to on reset). A
  /// federated shard sets this to the base of its id block so every id it
  /// ever issues identifies its owning shard, even after a crashed head
  /// rejoins with an empty transfer log.
  JobId job_id_base = 1;

  /// Heartbeat-based compute-node failure detection. 0 = off, the paper's
  /// behaviour: a failed compute node's job simply dies with it. When on,
  /// the server pings every mom each interval; heartbeat_miss_limit
  /// consecutive misses declare the node dead, its replicas are dropped and
  /// jobs left without a live replica are requeued.
  sim::Duration heartbeat_interval = sim::kDurationZero;
  uint32_t heartbeat_miss_limit = 3;
  sim::Duration heartbeat_timeout = sim::seconds(2);
};

/// Fill the cost fields from the testbed calibration.
ServerConfig server_config_from(const sim::Calibration& cal);

/// The job table a server ships in state transfers: its counters and every
/// job. On the wire (the state blob) each job carries its own id, so the
/// table's keys are not repeated. Storage holds the same table split up: the
/// counters in a meta record and each job in its own record, in the job's
/// wire form.
struct ServerState {
  JobId next_job_id = 1;
  uint64_t next_rank = 1;
  uint64_t submissions = 0;
  std::map<JobId, Job> jobs;
  bool operator==(const ServerState&) const = default;
};
template <class Ar> void fields(Ar& ar, ServerState& s) {
  ar(s.next_job_id, s.next_rank, s.submissions,
     net::keyed_values(s.jobs, &Job::id));
}

class Server : public net::RpcNode {
 public:
  Server(sim::Network& net, sim::HostId host, ServerConfig config);

  const ServerConfig& config() const { return config_; }

  // -- introspection (tests, examples, JOSHUA) -------------------------------

  const std::map<JobId, Job>& jobs() const { return state_.jobs; }
  std::optional<Job> find_job(JobId id) const;
  size_t count_in_state(JobState s) const;
  const std::vector<NodeState>& nodes() const { return nodes_; }
  uint64_t submissions() const { return state_.submissions; }

  /// Observers (used by JOSHUA's interceptor and by tests).
  std::function<void(const Job&)> on_job_start;
  std::function<void(const Job&)> on_job_complete;
  /// Fires once per up->down transition when a compute node is declared
  /// dead (heartbeat misses or a launch timeout). JOSHUA multicasts its
  /// ordered mutex revoke from here.
  std::function<void(sim::HostId)> on_node_failed;
  /// Completion-report filter. Return false to suppress the report (it is
  /// counted, not applied). JOSHUA installs its ordered duplicate-completion
  /// suppression here; unset = accept everything (plain TORQUE behaviour).
  std::function<bool(const JobReport&)> accept_report;
  /// Preemption interceptor. When set (JOSHUA), a preempt decision is
  /// multicast as an ordered kPreempt group op instead of being applied
  /// locally, so every head requeues the victim at the same point of the
  /// command stream; unset = apply immediately (plain TORQUE behaviour).
  std::function<void(JobId)> request_preempt;

  /// Requeue a running job (quiet-killing its instances, preserving its
  /// queue_rank). Called on ordered kPreempt delivery, or directly when no
  /// interceptor is installed. Idempotent: no-op unless the job is running.
  void apply_preempt(JobId id);

  /// Times `id` was preempted on this server (harness: each preemption
  /// legitimately re-runs the job, so exactly-r audits excuse r more runs).
  uint32_t preempt_count(JobId id) const;

  /// Registry handles ("pbs.*"); a counter's count() is this server's own.
  struct Telemetry {
    telemetry::Counter jobs_queued;
    telemetry::Counter jobs_launched;
    telemetry::Counter jobs_completed;
    telemetry::Counter sched_cycles;
    telemetry::Counter replicas_dispatched;
    telemetry::Counter replicas_reaped;
    telemetry::Counter reports_suppressed;
    telemetry::Counter jobs_requeued;
    telemetry::Counter heartbeat_misses;
    telemetry::Counter node_failovers;
    telemetry::Counter node_recoveries;
    telemetry::Histogram queue_wait;
    telemetry::Histogram failover_detect;
    // "pbs.sched.*" policy-layer metrics.
    telemetry::Counter preemptions;
    telemetry::Counter backfilled;
    telemetry::Counter array_expansions;
    telemetry::Gauge utilization;
    telemetry::Histogram policy_queue_wait;  ///< per-policy wait histogram
  };
  const Telemetry& stats() const { return m_; }

  /// Declare a compute node dead: mark it down, drop its replicas from
  /// running jobs, and requeue jobs left without a live replica. Idempotent.
  /// Called by heartbeat misses, launch timeouts, and by JOSHUA when an
  /// ordered mutex revoke is delivered (so every head converges).
  void note_node_failed(sim::HostId host);

  /// Return a compute node to service: mark it up and kick a sched cycle.
  /// Idempotent. Called by an answered heartbeat, and by JOSHUA when an
  /// ordered mutex claim arrives from a previously revoked mom -- the claim
  /// proves the mom serves launches again, and routing the up-transition
  /// through the ordered stream keeps every head's node table (and hence
  /// its scheduling decisions) convergent even with heartbeats disabled.
  /// Without it, a head that never crashes keeps the node down forever and
  /// its live-job table permanently trails the rest of the group.
  void note_node_recovered(sim::HostId host);

  /// Force a recovery from persistent storage (also runs on host restart).
  void recover();

  /// Direct state snapshot/install, bypassing the service interface. The
  /// paper's future-work "unified and location independent state
  /// description" (SSS-style); used by JOSHUA's snapshot transfer mode.
  sim::Payload dump_state_blob() const { return serialize_state(); }
  void load_state_blob(const sim::Payload& state) {
    apply_state(net::decode<ServerState>(state));
    persist_table();
    request_sched_cycle();
  }

  /// Drop all jobs and counters (a freshly installed server, as the paper
  /// assumes on a joining head before its state transfer).
  void reset_state();

  /// Insert `count` already-queued copies of `spec` directly into the job
  /// table, bypassing the RPC path (ids and FIFO ranks assigned as normal
  /// submits would). Benches use this to model an established backlog of
  /// millions of queued jobs; every replica of a group must be preloaded
  /// identically before service starts. Each job's record is written when
  /// the server persists on every mutation (a periodic checkpoint picks them
  /// up otherwise); no scheduling cycle is triggered -- the next real
  /// mutation does that.
  void preload_queued(uint64_t count, const JobSpec& spec);

  /// Raise the id counter to at least `floor`. A replay-mode state transfer
  /// calls this with the donor's counter: the compacted log omits terminal
  /// jobs, so replaying it alone would leave this server reissuing ids the
  /// group already assigned.
  void bump_next_job_id(JobId floor) {
    state_.next_job_id = std::max(state_.next_job_id, floor);
  }

  // net::RpcNode:
  void on_request(sim::Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override;
  void on_crash() override;
  void on_restart() override;

 private:
  void handle_submit(const SubmitRequest& req, sim::Endpoint from,
                     uint64_t rpc_id);
  void handle_stat(const StatRequest& req, sim::Endpoint from,
                   uint64_t rpc_id);
  /// kStatQuiet: the stat's status only (kUnknownJob for an id not in the
  /// table), without walking or encoding the table.
  void handle_quiet_stat(const StatRequest& req, sim::Endpoint from,
                         uint64_t rpc_id);
  void handle_delete(const DeleteRequest& req, sim::Endpoint from,
                     uint64_t rpc_id);
  void handle_signal(const SignalRequest& req, sim::Endpoint from,
                     uint64_t rpc_id);
  void handle_hold(const HoldRequest& req, sim::Endpoint from,
                   uint64_t rpc_id);
  void handle_release(const ReleaseRequest& req, sim::Endpoint from,
                      uint64_t rpc_id);
  void handle_preempt(const PreemptRequest& req, sim::Endpoint from,
                      uint64_t rpc_id);
  void handle_report(const JobReport& report, sim::Endpoint from,
                     uint64_t rpc_id);
  void handle_dump_state(sim::Endpoint from, uint64_t rpc_id);
  void handle_load_state(const LoadStateRequest& req, sim::Endpoint from,
                         uint64_t rpc_id);

  void request_sched_cycle();
  void run_sched_cycle();
  void launch(Job& job, const std::vector<std::vector<sim::HostId>>& sets);
  void send_replica_launch(JobId id, sim::HostId mom_host);
  void replica_launch_failed(JobId id, sim::HostId mom_host);
  void complete_job(Job& job, const JobReport& report);
  void reap_losers(const Job& job, sim::HostId winner);
  void kill_on(sim::HostId mom_host, JobId id, bool quiet = false);
  void free_nodes_of(JobId id);
  void update_utilization();
  NodeState* node_by_host(sim::HostId host);
  sim::Endpoint mom_endpoint(sim::HostId host) const;

  // Heartbeat failure detection.
  void arm_heartbeat_timer();
  void run_heartbeat_round();

  // Persistence.
  sim::Payload serialize_state() const { return net::encode(state_); }
  /// Install a table; its running jobs requeue. Callers decode the whole
  /// blob or every record first, so a malformed one throws before the
  /// table changes.
  void apply_state(ServerState state);
  /// Write `job`'s record and the meta record, when persisting on every
  /// mutation.
  void persist(const Job& job);
  /// Rewrite every record, when persisting on every mutation.
  void persist_table();
  /// Erase the records of jobs no longer in the table, then write every
  /// record and the meta record.
  void write_table();
  void write_job(const Job& job);
  void write_meta();
  std::map<std::string, std::string>& storage();
  void arm_checkpoint_timer();

  ServerConfig config_;
  ServerState state_;
  std::vector<NodeState> nodes_;
  Scheduler scheduler_;
  bool sched_pending_ = false;
  sim::TimerId sched_timer_ = 0;
  sim::TimerId checkpoint_timer_ = 0;
  sim::TimerId heartbeat_timer_ = 0;
  uint64_t hb_seq_ = 0;
  std::map<sim::HostId, uint32_t> hb_misses_;
  std::map<sim::HostId, sim::Time> hb_first_miss_;

  /// Victims whose ordered preempt is in flight (damping: the pure policy
  /// re-emits the same victim every cycle until the requeue applies).
  std::set<JobId> preempt_inflight_;
  std::map<JobId, uint32_t> preempt_counts_;
  Telemetry m_;  ///< registered in the ctor body
  uint16_t tc_preempt_ = 0;       ///< trace category "pbs.preempt"
  uint16_t tc_sched_ = 0;         ///< trace category "pbs.sched_cycle"
  uint16_t tc_job_start_ = 0;     ///< trace category "pbs.job_start"
  uint16_t tc_job_complete_ = 0;  ///< trace category "pbs.job_complete"
  uint16_t tc_replica_ = 0;       ///< trace category "pbs.replica"
  uint16_t tc_node_fail_ = 0;     ///< trace category "pbs.node_failover"
};

}  // namespace pbs
