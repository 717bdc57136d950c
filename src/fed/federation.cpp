#include "fed/federation.h"

#include <stdexcept>

#include "util/config.h"

namespace fed {

FederationOptions federation_options_from(const joshua::ClusterOptions& co) {
  FederationOptions fo;
  fo.shard_count = co.shards.count < 1 ? 1 : co.shards.count;
  fo.cal = co.cal;
  fo.transfer = co.transfer;
  fo.auto_rejoin = co.auto_rejoin;
  fo.require_majority = co.require_majority;
  fo.sched = co.sched;
  fo.seed = co.seed;
  fo.mom_heartbeat = co.mom_heartbeat;
  fo.heartbeat_miss_limit = co.heartbeat_miss_limit;
  fo.gcs_heartbeat = co.gcs_heartbeat;
  fo.gcs_suspect = co.gcs_suspect;
  fo.gcs_flush = co.gcs_flush;
  fo.ordering = co.ordering;
  fo.order_batch = co.order_batch;
  fo.order_window = co.order_window;
  if (co.shards.id_stride != 0) fo.id_stride = co.shards.id_stride;
  fo.queue_globs = co.shards.queues;
  bool any_globs = false;
  for (const auto& globs : fo.queue_globs) any_globs |= !globs.empty();
  if (!any_globs) fo.queue_globs.clear();

  if (fo.shard_count <= 1 || co.shards.heads.empty()) {
    fo.heads_per_shard = co.head_count;
    fo.computes_per_shard = co.compute_count;
    return fo;
  }
  size_t per = co.shards.heads.front().size();
  for (const auto& heads : co.shards.heads)
    if (heads.size() != per)
      throw jutil::ConfigError(
          "federation requires equal heads per shard (got " +
          std::to_string(heads.size()) + " vs " + std::to_string(per) + ")");
  fo.heads_per_shard = static_cast<int>(per);
  // Computes are not listed per shard in the file; split the pool evenly.
  fo.computes_per_shard = co.compute_count / fo.shard_count;
  if (fo.computes_per_shard < 1) fo.computes_per_shard = 1;
  return fo;
}

Federation::Federation(FederationOptions options)
    : options_(std::move(options)),
      map_([&] {
        ShardMapConfig mc;
        mc.shard_count = static_cast<uint32_t>(
            options_.shard_count < 1 ? 1 : options_.shard_count);
        mc.id_stride = options_.id_stride;
        mc.queue_globs = options_.queue_globs;
        return ShardMap(mc);
      }()),
      sim_(options_.seed),
      net_(sim_, options_.cal.network),
      faults_(net_) {
  if (options_.heads_per_shard < 1 || options_.computes_per_shard < 1)
    throw jutil::ConfigError("federation: heads/computes per shard must be >= 1");

  uint32_t shards = map_.shard_count();
  // Hosts first (flat order: all of shard 0's heads, then shard 1's, ...),
  // so host ids are stable regardless of per-shard wiring below.
  for (uint32_t s = 0; s < shards; ++s)
    for (int i = 0; i < options_.heads_per_shard; ++i)
      head_hosts_.push_back(
          net_.add_host("s" + std::to_string(s) + "h" + std::to_string(i))
              .id());
  for (uint32_t s = 0; s < shards; ++s)
    for (int i = 0; i < options_.computes_per_shard; ++i)
      compute_hosts_.push_back(
          net_.add_host("s" + std::to_string(s) + "n" + std::to_string(i))
              .id());
  login_host_ = net_.add_host("login").id();

  size_t hps = static_cast<size_t>(options_.heads_per_shard);
  size_t cps = static_cast<size_t>(options_.computes_per_shard);
  for (uint32_t s = 0; s < shards; ++s) {
    std::vector<sim::HostId> shard_heads(
        head_hosts_.begin() + static_cast<ptrdiff_t>(s * hps),
        head_hosts_.begin() + static_cast<ptrdiff_t>((s + 1) * hps));
    std::vector<sim::HostId> shard_computes(
        compute_hosts_.begin() + static_cast<ptrdiff_t>(s * cps),
        compute_hosts_.begin() + static_cast<ptrdiff_t>((s + 1) * cps));
    std::vector<sim::Endpoint> mom_endpoints;
    for (sim::HostId h : shard_computes)
      mom_endpoints.push_back({h, joshua::Ports::kMom});

    // PBS replicas: identical to Cluster's except the job-id base, which
    // anchors this shard's block, and the persistence knob.
    for (sim::HostId h : shard_heads) {
      pbs::ServerConfig cfg = pbs::server_config_from(options_.cal);
      cfg.port = joshua::Ports::kPbsServer;
      cfg.moms = mom_endpoints;
      cfg.sched = options_.sched;
      cfg.persist = options_.pbs_persist;
      cfg.heartbeat_interval = options_.mom_heartbeat;
      cfg.heartbeat_miss_limit = options_.heartbeat_miss_limit;
      cfg.job_id_base = map_.first_id(s);
      pbs_servers_.push_back(std::make_unique<pbs::Server>(net_, h, cfg));
    }

    for (sim::HostId h : shard_computes) {
      pbs::MomConfig cfg = pbs::mom_config_from(options_.cal);
      cfg.port = joshua::Ports::kMom;
      cfg.server_port = joshua::Ports::kPbsServer;
      moms_.push_back(std::make_unique<pbs::Mom>(net_, h, cfg));
    }

    // JOSHUA servers: each shard is its own gcs group. Same well-known port
    // on every head works because the head-host sets are disjoint; distinct
    // group names and telemetry scopes keep the shards told apart in
    // reports and traces.
    for (size_t i = 0; i < shard_heads.size(); ++i) {
      joshua::JoshuaConfig cfg =
          joshua::joshua_config_from(options_.cal, shard_heads);
      cfg.client_port = joshua::Ports::kJoshua;
      cfg.pbs_port = joshua::Ports::kPbsServer;
      cfg.group.port = joshua::Ports::kGcs;
      cfg.group.group_name = "joshua-s" + std::to_string(s);
      cfg.group.telemetry_scope = "shard" + std::to_string(s);
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
      cfg.shard.shard = s;
      cfg.shard.count = shards;
      cfg.shard.id_stride = map_.id_stride();
      joshua_servers_.push_back(std::make_unique<joshua::Server>(
          net_, shard_heads[i], cfg,
          pbs_servers_[s * hps + i].get()));
    }

    // Mom plugins know only their own shard's heads -- the jmutex/jdone
    // arbitration is per shard like everything else below the router.
    for (size_t i = 0; i < shard_computes.size(); ++i) {
      joshua::MomPluginConfig cfg;
      cfg.port = joshua::Ports::kMomPlugin;
      cfg.heads = shard_heads;
      cfg.joshua_port = joshua::Ports::kJoshua;
      plugins_.push_back(std::make_unique<joshua::MomPlugin>(
          net_, shard_computes[i], cfg));
      plugins_.back()->attach(*moms_[s * cps + i]);
    }
  }
}

Federation::~Federation() = default;

void Federation::start() {
  for (auto& server : joshua_servers_) server->start();
}

bool Federation::converged_shard(uint32_t shard) const {
  size_t hps = static_cast<size_t>(options_.heads_per_shard);
  const gcs::View* reference = nullptr;
  size_t live = 0;
  for (size_t i = shard * hps; i < (shard + 1) * hps; ++i) {
    if (!net_.host(head_hosts_[i]).up()) continue;
    const auto& member = joshua_servers_[i]->group();
    if (member.state() != gcs::GroupMember::State::kMember) return false;
    ++live;
    if (reference == nullptr) {
      reference = &member.view();
    } else if (member.view().id != reference->id) {
      return false;
    }
  }
  return reference != nullptr && reference->size() == live && live > 0;
}

bool Federation::converged() const {
  for (uint32_t s = 0; s < map_.shard_count(); ++s)
    if (!converged_shard(s)) return false;
  return true;
}

bool Federation::run_until_converged(sim::Duration deadline) {
  sim::Time limit = sim_.now() + deadline;
  while (sim_.now() < limit) {
    if (converged()) return true;
    sim_.run_for(sim::msec(50));
  }
  return converged();
}

Router& Federation::make_router() {
  size_t hps = static_cast<size_t>(options_.heads_per_shard);
  std::vector<std::vector<sim::Endpoint>> shard_heads(map_.shard_count());
  for (uint32_t s = 0; s < map_.shard_count(); ++s)
    for (size_t i = 0; i < hps; ++i)
      shard_heads[s].push_back(
          {head_hosts_[s * hps + i], joshua::Ports::kJoshua});
  routers_.push_back(std::make_unique<Router>(
      net_, login_host_, next_client_port_, map_, shard_heads, options_.cal));
  next_client_port_ =
      static_cast<sim::Port>(next_client_port_ + map_.shard_count());
  return *routers_.back();
}

}  // namespace fed
