#include "joshua/cluster.h"

namespace joshua {

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      sim_(options_.seed),
      net_(sim_, options_.cal.network),
      faults_(net_) {
  const ShardLayout& layout = options_.shards;
  layout.validate(options_.head_count, options_.compute_count,
                  options_.with_joshua);
  uint32_t shards = layout.shard_count();
  size_t heads = static_cast<size_t>(options_.head_count);
  size_t computes = static_cast<size_t>(options_.compute_count);
  size_t per_shard_computes = computes / shards;
  for (const std::vector<int>& set : layout.head_sets(options_.head_count))
    shard_heads_.emplace_back(set.begin(), set.end());
  std::vector<size_t> rank(heads);  // a head's position within its shard
  head_shard_.resize(heads);
  for (uint32_t s = 0; s < shards; ++s)
    for (size_t r = 0; r < shard_heads_[s].size(); ++r) {
      head_shard_[shard_heads_[s][r]] = s;
      rank[shard_heads_[s][r]] = r;
    }

  // Hosts first (heads, computes, login), so host ids do not depend on the
  // per-shard wiring below. One shard keeps the paper's names; a federation
  // names hosts by shard and rank within it.
  auto host_name = [&](std::string plain, char role, size_t index,
                       size_t shard, size_t rank_in_shard) {
    if (!layout.sharded()) return plain + std::to_string(index);
    return 's' + std::to_string(shard) + role + std::to_string(rank_in_shard);
  };
  for (size_t i = 0; i < heads; ++i)
    head_hosts_.push_back(
        net_.add_host(host_name("head", 'h', i, head_shard_[i], rank[i])).id());
  for (size_t i = 0; i < computes; ++i)
    compute_hosts_.push_back(
        net_.add_host(host_name("node", 'n', i, i / per_shard_computes,
                                i % per_shard_computes))
            .id());
  login_host_ = net_.add_host("login").id();

  pbs_servers_.resize(heads);
  moms_.resize(computes);
  if (options_.with_joshua) {
    joshua_servers_.resize(heads);
    plugins_.resize(computes);
  }
  for (uint32_t s = 0; s < shards; ++s) {
    std::vector<sim::HostId> shard_hosts;
    for (size_t h : shard_heads_[s]) shard_hosts.push_back(head_hosts_[h]);
    size_t first_compute = s * per_shard_computes;
    size_t end_compute = first_compute + per_shard_computes;

    // Mom endpoints shared by every PBS server of the shard.
    std::vector<sim::Endpoint> mom_endpoints;
    for (size_t c = first_compute; c < end_compute; ++c)
      mom_endpoints.push_back({compute_hosts_[c], Ports::kMom});

    // PBS servers on every head, numbering jobs from the shard's id block.
    for (size_t h : shard_heads_[s]) {
      pbs::ServerConfig cfg = pbs::server_config_from(options_.cal);
      cfg.port = Ports::kPbsServer;
      cfg.moms = mom_endpoints;
      cfg.sched = options_.sched;
      cfg.persist = options_.pbs_persist;
      cfg.heartbeat_interval = options_.mom_heartbeat;
      cfg.heartbeat_miss_limit = options_.heartbeat_miss_limit;
      cfg.job_id_base = layout.first_id(s);
      pbs_servers_[h] =
          std::make_unique<pbs::Server>(net_, head_hosts_[h], cfg);
    }

    // Moms on every compute node.
    for (size_t c = first_compute; c < end_compute; ++c) {
      pbs::MomConfig cfg = pbs::mom_config_from(options_.cal);
      cfg.port = Ports::kMom;
      cfg.server_port = Ports::kPbsServer;
      cfg.quirk_hold_on_head_failure = options_.quirk_mom;
      moms_[c] = std::make_unique<pbs::Mom>(net_, compute_hosts_[c], cfg);
    }

    if (!options_.with_joshua) continue;

    // JOSHUA servers on every head: each shard is its own gcs group. The
    // same well-known port on every head works because the shards' head
    // sets are disjoint; distinct group names and telemetry scopes tell the
    // shards apart in reports and traces.
    for (size_t h : shard_heads_[s]) {
      JoshuaConfig cfg = joshua_config_from(options_.cal, shard_hosts);
      cfg.client_port = Ports::kJoshua;
      cfg.pbs_port = Ports::kPbsServer;
      cfg.group.port = Ports::kGcs;
      if (layout.sharded()) {
        cfg.group.group_name = "joshua-s" + std::to_string(s);
        cfg.group.telemetry_scope = "shard" + std::to_string(s);
      }
      cfg.group.require_majority = options_.require_majority;
      if (options_.gcs_heartbeat.us > 0)
        cfg.group.heartbeat_interval = options_.gcs_heartbeat;
      if (options_.gcs_suspect.us > 0)
        cfg.group.suspect_timeout = options_.gcs_suspect;
      if (options_.gcs_flush.us > 0)
        cfg.group.flush_timeout = options_.gcs_flush;
      if (options_.gcs_hb_proc.us > 0) cfg.group.hb_proc = options_.gcs_hb_proc;
      if (options_.gcs_ctrl_proc.us > 0)
        cfg.group.ctrl_proc = options_.gcs_ctrl_proc;
      cfg.group.ordering = options_.ordering;
      cfg.group.order_batch = options_.order_batch;
      cfg.group.inflight_window = options_.order_window;
      cfg.transfer = options_.transfer;
      cfg.auto_rejoin = options_.auto_rejoin;
      cfg.read_local = options_.jstat_local;
      cfg.shard = {s, shards, layout.stride()};
      joshua_servers_[h] = std::make_unique<Server>(net_, head_hosts_[h], cfg,
                                                    *pbs_servers_[h]);
    }

    // Mom plugins (jmutex/jdone) know only their own shard's heads.
    for (size_t c = first_compute; c < end_compute; ++c) {
      MomPluginConfig cfg;
      cfg.port = Ports::kMomPlugin;
      cfg.heads = shard_hosts;
      cfg.joshua_port = Ports::kJoshua;
      plugins_[c] = std::make_unique<MomPlugin>(net_, compute_hosts_[c], cfg);
      plugins_[c]->attach(*moms_[c]);
    }
  }
}

Cluster::~Cluster() = default;

void Cluster::start() {
  for (auto& server : joshua_servers_) server->start();
}

std::vector<sim::Endpoint> Cluster::shard_endpoints(uint32_t shard) const {
  std::vector<sim::Endpoint> endpoints;
  for (size_t h : shard_heads_.at(shard))
    endpoints.push_back(joshua_endpoint(h));
  return endpoints;
}

std::vector<size_t> Cluster::live_heads() const {
  std::vector<size_t> live(shard_count(), 0);
  for (size_t i = 0; i < head_hosts_.size(); ++i)
    if (net_.host(head_hosts_[i]).up()) ++live[head_shard_[i]];
  return live;
}

bool Cluster::converged(const std::vector<size_t>& expected) const {
  if (joshua_servers_.empty()) return false;  // plain TORQUE: no group
  for (uint32_t s = 0; s < shard_count(); ++s) {
    const gcs::View* reference = nullptr;
    size_t live = 0;
    for (size_t h : shard_heads_[s]) {
      if (!net_.host(head_hosts_[h]).up()) continue;
      const auto& member = joshua_servers_[h]->group();
      if (member.state() != gcs::GroupMember::State::kMember) return false;
      ++live;
      if (reference == nullptr) {
        reference = &member.view();
      } else if (member.view().id != reference->id) {
        return false;
      }
    }
    if (reference == nullptr || reference->size() != expected[s] ||
        live != expected[s])
      return false;
  }
  return true;
}

bool Cluster::converged(size_t expected_members) const {
  return converged(std::vector<size_t>(shard_count(), expected_members));
}

bool Cluster::converged() const { return converged(live_heads()); }

bool Cluster::run_until_converged(sim::Duration deadline) {
  sim::Time limit = sim_.now() + deadline;
  // Each shard must reach a view of the heads live now.
  std::vector<size_t> live = live_heads();
  while (sim_.now() < limit) {
    if (converged(live)) return true;
    sim_.run_for(sim::msec(50));
  }
  return converged(live);
}

Client& Cluster::make_jclient() {
  std::vector<sim::Endpoint> heads;
  for (size_t i = 0; i < head_hosts_.size(); ++i)
    heads.push_back(joshua_endpoint(i));
  ClientConfig cfg = joshua_client_config_from(options_.cal, std::move(heads));
  jclients_.push_back(
      std::make_unique<Client>(net_, login_host_, next_client_port_++, cfg));
  return *jclients_.back();
}

pbs::Client& Cluster::make_pbs_client(size_t head) {
  pbs::ClientConfig cfg =
      pbs::client_config_from(options_.cal, pbs_endpoint(head));
  pbs_clients_.push_back(std::make_unique<pbs::Client>(
      net_, login_host_, next_client_port_++, cfg));
  return *pbs_clients_.back();
}

sim::Port Cluster::claim_client_ports(uint32_t n) {
  sim::Port first = next_client_port_;
  next_client_port_ = static_cast<sim::Port>(next_client_port_ + n);
  return first;
}

}  // namespace joshua
