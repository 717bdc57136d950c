// The JOSHUA server: the external-replication interceptor running on each
// head node (paper Figure 8/9), as the PBS adapter on the rsm core.
//
// The core (rsm::ReplicaNode) accepts PBS-compatible user commands
// (jsub/jstat/jdel), multicasts them AGREED through the group communication
// system and relays the output back to the client from the head the client
// contacted -- exactly-once output, as the paper requires. This adapter
// executes each delivered command against the *local*, unmodified PBS
// server, an RPC away by design (external replication).
//
// It also arbitrates the jmutex/jdone distributed mutual exclusion the
// mom-side prologue uses so a job requested by every head starts exactly
// once, and serves state transfer to joining heads:
//
//   * TransferMode::kReplay -- what JOSHUA v0.1 did: replay the (compacted)
//     user-command log against the joiner's fresh PBS server. Faithful to
//     the paper, including its documented limitation: jhold/jrls are
//     rejected in this mode because replay cannot reproduce hold state
//     consistently.
//   * TransferMode::kSnapshot -- the paper's future-work "unified state
//     description": a direct PBS state snapshot; supports hold/release.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "gcs/group_member.h"
#include "joshua/protocol.h"
#include "joshua/shard_layout.h"
#include "net/rpc.h"
#include "pbs/protocol.h"
#include "pbs/server.h"
#include "rsm/replicated_service.h"

namespace joshua {

enum class TransferMode : uint8_t { kReplay = 0, kSnapshot = 1 };

/// This server's slice of a federated job-id space (see ShardLayout for the
/// id-block rule). count <= 1 means unsharded -- every id is owned, the
/// paper's single-group behaviour.
struct ShardIdentity {
  uint32_t shard = 0;
  uint32_t count = 1;
  pbs::JobId id_stride = kDefaultIdStride;
  bool sharded() const { return count > 1; }
  bool owns(pbs::JobId id) const {
    return !sharded() || id_block_owner(id, count, id_stride) == shard;
  }
};

/// JOSHUA's deployment values on top of the rsm core's stages: the core's
/// client port, intercept stage (request_proc), relay stage (relay_proc),
/// jstat-local reads (read_local) and auto-rejoin carry the joshua values.
struct JoshuaConfig : rsm::ReplicaConfig {
  JoshuaConfig();

  sim::Port pbs_port = 15001;  ///< the colocated PBS server
  TransferMode transfer = TransferMode::kReplay;

  /// Federation: the shard this server belongs to. Commands naming a job id
  /// outside the shard's block are rejected with kUnknownJob -- the router
  /// never sends them here, so one arriving means a misrouted direct client.
  ShardIdentity shard;

  /// CPU cost of executing an ordered command against the local PBS (the
  /// core's apply stage). read_local jstats skip it: within one shard every
  /// replica holds the same totally-ordered prefix, so a member's answer is
  /// a consistent (possibly slightly stale) snapshot.
  sim::Duration exec_proc = sim::msec(8);

  sim::Duration local_rpc_timeout = sim::seconds(30);
};

JoshuaConfig joshua_config_from(const sim::Calibration& cal,
                                std::vector<sim::HostId> head_hosts);

/// The PBS adapter on the rsm core: one per head node.
class Server : private rsm::IDeterministicService {
 public:
  /// `local_pbs` is the colocated PBS server. Snapshot transfer reads and
  /// writes its state directly, modelling the SSS-style state interface.
  Server(sim::Network& net, sim::HostId host, JoshuaConfig config,
         pbs::Server& local_pbs);

  /// Join the active head group (start of service).
  void start() { node_.start(); }
  /// Leave the group ("handled as a forced failure by causing the JOSHUA
  /// server to shutdown via a signal", Section 4).
  void shutdown() { node_.shutdown(); }

  bool in_service() const { return node_.in_service(); }
  /// True while a replay-mode state transfer is still being applied; the
  /// local job table lags the group until this drops back to false.
  bool replaying() const { return replaying_; }
  const gcs::GroupMember& group() const { return node_.group(); }
  gcs::GroupMember& group() { return node_.group(); }

  /// Registry handles ("joshua.*"); a counter's count() is this head's own
  /// number. The core's counters (commands intercepted, replies relayed,
  /// stats answered locally) are core_stats().
  struct Telemetry {
    telemetry::Counter commands_executed;
    telemetry::Counter replays_applied;
    telemetry::Counter mutex_requests;  ///< no registry name: counts locally
    telemetry::Counter mutex_grants;    ///< jmutex answered "won"
    telemetry::Counter mutex_denials;   ///< jmutex answered "lost"
    telemetry::Counter mutex_revokes;   ///< ordered compute-node revocations
    telemetry::Counter dup_completions_suppressed;  ///< extra MutexDones
    telemetry::Counter ordered_completions;  ///< applied from MutexDone
    telemetry::Counter preempts_ordered;     ///< ordered preemptions applied
    telemetry::Counter reports_rejected;
    /// Per-head ("joshua.replay_divergence.<host>"): replayed commands whose
    /// local PBS response disagreed with what the replayed log implies. Any
    /// nonzero value means this head's rebuilt state drifted from the group.
    telemetry::Counter replay_divergence;
    telemetry::Counter shard_rejects;  ///< commands naming out-of-shard ids
    telemetry::Histogram jmutex_wait;  ///< jmutex arrival -> grant
  };
  const Telemetry& stats() const { return m_; }
  const rsm::Telemetry& core_stats() const { return node_.stats(); }

 private:
  // rsm::IDeterministicService:
  void apply_async(const sim::Payload& request, uint64_t tag, bool answers,
                   ApplyDone done) override;
  sim::Payload snapshot() const override;
  void install(const sim::Payload& state) override;
  sim::Duration apply_cost(const sim::Payload&) const override {
    return config_.exec_proc;
  }
  sim::Duration local_cost(const sim::Payload&) const override {
    return sim::kDurationZero;
  }
  rsm::Admit admit(const sim::Payload& request,
                   const rsm::Caller& caller) override;
  sim::Payload unavailable(const sim::Payload& request) const override;
  bool on_ordered(rsm::Command& cmd) override;
  void apply_op(const sim::Payload& op) override;
  void on_crash() override;

  // jmutex/jdone path.
  void handle_jmutex(const JMutexRequest& req, const rsm::Caller& caller);
  void handle_jdone(const JDoneRequest& req, const rsm::Caller& caller);
  void apply_mutex_req(const GroupMutexReq& req);
  void apply_mutex_done(const GroupMutexDone& done);
  void apply_mutex_revoke(const GroupMutexRevoke& rev);
  void apply_group_preempt(const GroupPreempt& pre);
  void answer_mutex_waiters(pbs::JobId job);
  /// pbs::Server::accept_report hook: ordered duplicate-completion
  /// suppression for replicated jobs.
  bool filter_report(const pbs::JobReport& report);

  /// Serialize / install the jmutex arbitration table that rides with every
  /// state transfer (claims, terminal jobs, revoked moms).
  sim::Payload export_mutex_table() const;
  void install_mutex_table(const sim::Payload& blob);

  // Replay-mode machinery.
  void replay_next();
  /// Append a state-changing command to the replay log. Returns its 1-based
  /// position, which rides through the apply as the command's rsm tag; 0
  /// for reads, which are not logged.
  uint64_t log_command(const sim::Payload& request);
  void note_command_result(uint64_t log_pos, const sim::Payload& request,
                           const sim::Payload& response);

  /// Register every joshua metric, the core's included, in one fixed order
  /// (scenario digests hash the registry in registration order).
  rsm::Telemetry instrument(telemetry::Hub& hub, const std::string& host);

  void call_local_pbs(sim::Payload request,
                      std::function<void(std::optional<sim::Payload>)> done);

  JoshuaConfig config_;
  pbs::Server& local_pbs_;
  Telemetry m_;  ///< filled by node_'s constructor through instrument()
  uint16_t tc_replay_ = 0;   ///< trace category "joshua.replay"
  uint16_t tc_revoke_ = 0;   ///< trace category "joshua.mutex_revoke"

  /// jmutex arbitration, generalised from "exactly once" to "exactly r".
  struct MutexState {
    /// Delivered claims, one per mom, in total order: (mom, claiming head).
    /// The first max_real distinct moms win their launch slot.
    std::vector<std::pair<sim::HostId, gcs::MemberId>> claims;
    /// Replication factor, fixed by the first delivered claim so every head
    /// arbitrates with the same r even if requesters disagree.
    uint32_t max_real = 1;
    bool done = false;
    sim::HostId winner_mom = sim::kInvalidHost;  ///< mom of the first jdone
    int32_t exit_code = 0;
  };
  static bool mutex_winner(const MutexState& state, sim::HostId mom,
                           gcs::MemberId head);
  static bool mutex_answerable(const MutexState& state, sim::HostId mom);
  std::map<pbs::JobId, MutexState> mutexes_;
  struct MutexWaiter {
    gcs::MemberId head;
    sim::HostId mom;
    rsm::Caller caller;
    sim::Time asked{0};  ///< when the jmutex request arrived
  };
  std::multimap<pbs::JobId, MutexWaiter> mutex_waiters_;
  /// (job, mom) pairs whose claim this head has already multicast.
  std::set<std::pair<pbs::JobId, sim::HostId>> mutex_cast_;
  /// Moms whose failure has already been revoked through the group; damps
  /// the revoke storm when every head's detector fires. Re-armed when a
  /// fresh claim from the mom is delivered (it came back).
  std::set<sim::HostId> revoked_moms_;

  /// Replay-mode command log: request + the job id it produced/affected,
  /// compacted as jobs reach terminal state.
  struct LogEntry {
    sim::Payload request;
    pbs::JobId job = pbs::kInvalidJob;
  };
  std::vector<LogEntry> command_log_;
  std::set<pbs::JobId> terminal_jobs_;
  /// Highest job id any ordered submit produced (learned from responses or a
  /// state transfer). Served as CommandLog::next_job_id so joiners never
  /// reuse ids whose jobs the compaction dropped.
  pbs::JobId max_job_id_seen_ = pbs::kInvalidJob;

  bool replaying_ = false;
  std::deque<sim::Payload> replay_queue_;
  std::deque<rsm::Command> held_commands_;

  /// Last: built after, and destroyed before, everything its callbacks reach.
  rsm::ReplicaNode node_;
};

}  // namespace joshua
