// Test-cluster harness: assembles the paper's testbed in one object.
//
// "up to 4 head nodes and 2 compute nodes in various combinations"
// (Section 5): N head nodes each running a PBS server + JOSHUA server, M
// compute nodes each running a PBS mom + JOSHUA mom plugin, plus a login
// node for clients. Also builds the plain-TORQUE baseline (no JOSHUA) used
// by Figures 10 and 11.
//
// ClusterOptions::shards turns the same testbed into a federation: with
// count > 1 each shard is one unmodified paper cluster -- its own gcs group
// ("joshua-s<k>" on its own heads), PBS replica set numbering jobs from the
// shard's id block, compute nodes and mom plugins -- all over one simulated
// network, fronted by a fed::Router. Nothing crosses shards below the
// router, which is why aggregate ordered throughput scales with the shard
// count while every per-shard guarantee stays the paper's.
#pragma once

#include <memory>
#include <vector>

#include "gcs/ordering_engine.h"
#include "joshua/client.h"
#include "joshua/mom_plugin.h"
#include "joshua/server.h"
#include "joshua/shard_layout.h"
#include "pbs/client.h"
#include "pbs/mom.h"
#include "pbs/server.h"
#include "sim/calibration.h"
#include "sim/failure.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace joshua {

struct ClusterOptions {
  int head_count = 2;
  int compute_count = 2;
  sim::Calibration cal = sim::paper_testbed();
  /// false = plain TORQUE: no JOSHUA servers/plugins; clients talk straight
  /// to the (single) PBS server.
  bool with_joshua = true;
  TransferMode transfer = TransferMode::kReplay;
  bool auto_rejoin = false;
  bool quirk_mom = false;  ///< the paper's observed TORQUE report deficiency
  bool require_majority = false;
  /// Heartbeat-based compute-node failure detection at every PBS server.
  /// Zero = off, the paper's behaviour (a dead compute node's job dies with
  /// it); nonzero enables failover (requeue of jobs left with no replica).
  sim::Duration mom_heartbeat = sim::kDurationZero;
  uint32_t heartbeat_miss_limit = 3;
  pbs::SchedulerConfig sched{};  ///< default: FIFO, exclusive cluster
  uint64_t seed = 1;
  /// gcs timing overrides; zero keeps the GroupConfig defaults.
  sim::Duration gcs_heartbeat = sim::kDurationZero;
  sim::Duration gcs_suspect = sim::kDurationZero;
  sim::Duration gcs_flush = sim::kDurationZero;
  /// Total-order engine for the replication group.
  gcs::OrderingMode ordering = gcs::OrderingMode::kAllAck;
  /// Ordering hot-path batching: max stamps per token announcement / data
  /// messages coalesced per ack cut (0 = legacy unbatched).
  uint32_t order_batch = 0;
  /// Sender flow-control window: own undelivered AGREED/SAFE multicasts a
  /// member may pipeline before further sends queue (0 = unbounded, the
  /// legacy behaviour).
  uint32_t order_window = 0;
  /// Federation layout: count > 1 wires one replication group per shard
  /// (see ShardLayout). Validated by the Cluster constructor.
  ShardLayout shards{};
  /// PBS persistence. Benches preloading millions of jobs switch it off --
  /// the encode cost is real but not what they measure.
  bool pbs_persist = true;
  /// Local-read fast path for jstat: off keeps every command ordered, the
  /// paper's semantics.
  bool jstat_local = false;
  /// gcs CPU cost overrides for heartbeat and control messages; zero keeps
  /// the GroupConfig defaults.
  sim::Duration gcs_hb_proc = sim::kDurationZero;
  sim::Duration gcs_ctrl_proc = sim::kDurationZero;
};

/// Well-known ports of the testbed.
struct Ports {
  static constexpr sim::Port kGcs = 7000;
  static constexpr sim::Port kPbsServer = 15001;
  static constexpr sim::Port kMom = 15002;
  static constexpr sim::Port kJoshua = 17000;
  static constexpr sim::Port kMomPlugin = 17002;
  static constexpr sim::Port kClientBase = 20000;
};

class Cluster {
 public:
  /// Throws jutil::ConfigError when options.shards cannot be wired.
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& sim() { return sim_; }
  sim::Network& net() { return net_; }
  sim::FailureInjector& faults() { return faults_; }
  const ClusterOptions& options() const { return options_; }

  const std::vector<sim::HostId>& head_hosts() const { return head_hosts_; }
  const std::vector<sim::HostId>& compute_hosts() const {
    return compute_hosts_;
  }
  sim::HostId login_host() const { return login_host_; }

  pbs::Server& pbs_server(size_t head) { return *pbs_servers_.at(head); }
  pbs::Mom& mom(size_t compute) { return *moms_.at(compute); }
  Server& joshua_server(size_t head) { return *joshua_servers_.at(head); }
  MomPlugin& mom_plugin(size_t compute) { return *plugins_.at(compute); }
  size_t head_count() const { return pbs_servers_.size(); }
  size_t compute_count() const { return moms_.size(); }
  uint32_t shard_count() const { return options_.shards.shard_count(); }
  uint32_t shard_of_head(size_t head) const { return head_shard_.at(head); }
  /// The JOSHUA endpoints of one shard's heads.
  std::vector<sim::Endpoint> shard_endpoints(uint32_t shard) const;

  /// Start every JOSHUA server (joins the group). No-op without JOSHUA.
  void start();

  /// Run the simulation until each shard's live heads share one installed
  /// view (or the deadline passes). Returns true on convergence.
  bool run_until_converged(sim::Duration deadline = sim::seconds(30));

  /// True when every shard's live heads agree on one view of size
  /// `expected_members`.
  bool converged(size_t expected_members) const;
  /// True when every shard's live heads agree on one view of all of them.
  bool converged() const;

  /// A JOSHUA client on the login node knowing every head.
  Client& make_jclient();
  /// A plain PBS client on the login node talking to one head directly.
  pbs::Client& make_pbs_client(size_t head);
  /// Reserve `n` consecutive client ports on the login node (a router's
  /// per-shard clients); returns the first.
  sim::Port claim_client_ports(uint32_t n);

  /// Endpoint helpers.
  sim::Endpoint joshua_endpoint(size_t head) const {
    return {head_hosts_.at(head), Ports::kJoshua};
  }
  sim::Endpoint pbs_endpoint(size_t head) const {
    return {head_hosts_.at(head), Ports::kPbsServer};
  }

 private:
  /// Live heads per shard.
  std::vector<size_t> live_heads() const;
  /// Each shard s's live heads are members sharing one view of
  /// `expected[s]` members.
  bool converged(const std::vector<size_t>& expected) const;

  ClusterOptions options_;
  sim::Simulation sim_;
  sim::Network net_;
  sim::FailureInjector faults_;
  std::vector<sim::HostId> head_hosts_;
  std::vector<sim::HostId> compute_hosts_;
  sim::HostId login_host_ = sim::kInvalidHost;
  std::vector<std::vector<size_t>> shard_heads_;  ///< head indexes per shard
  std::vector<uint32_t> head_shard_;              ///< shard of each head
  std::vector<std::unique_ptr<pbs::Server>> pbs_servers_;
  std::vector<std::unique_ptr<pbs::Mom>> moms_;
  std::vector<std::unique_ptr<Server>> joshua_servers_;
  std::vector<std::unique_ptr<MomPlugin>> plugins_;
  std::vector<std::unique_ptr<Client>> jclients_;
  std::vector<std::unique_ptr<pbs::Client>> pbs_clients_;
  sim::Port next_client_port_ = Ports::kClientBase;
};

}  // namespace joshua
