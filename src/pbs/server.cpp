#include "pbs/server.h"

#include <algorithm>
#include <charconv>

#include "sim/calibration.h"
#include "util/logging.h"

namespace pbs {

namespace {

// Storage keys: one record per job and one meta record for the counters.
constexpr std::string_view kJobKeyPrefix = "pbs.j/";
constexpr std::string_view kMetaKey = "pbs.meta";

/// "pbs.j/<hex id>": at most 15 characters for ids below 2^36, so the key
/// fits std::string's small buffer.
std::string job_key(JobId id) {
  char buf[kJobKeyPrefix.size() + 16];
  kJobKeyPrefix.copy(buf, kJobKeyPrefix.size());
  char* end =
      std::to_chars(buf + kJobKeyPrefix.size(), std::end(buf), id, 16).ptr;
  return std::string(buf, end);
}

bool is_job_key(const std::string& key) {
  return key.compare(0, kJobKeyPrefix.size(), kJobKeyPrefix) == 0;
}

/// The id a job key names, or kInvalidJob when it names none.
JobId job_key_id(const std::string& key) {
  JobId id = kInvalidJob;
  const char* first = key.data() + kJobKeyPrefix.size();
  const char* last = key.data() + key.size();
  auto [ptr, ec] = std::from_chars(first, last, id, 16);
  return ec == std::errc() && ptr == last ? id : kInvalidJob;
}

/// Overwrite a stored value in place, reusing its buffer.
void store(std::string& value, const sim::Payload& bytes) {
  value.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

/// A stored value's bytes, for the wire decoder.
sim::Payload payload_of(const std::string& value) {
  return sim::Payload(value.begin(), value.end());
}

}  // namespace

ServerConfig server_config_from(const sim::Calibration& cal) {
  ServerConfig cfg;
  cfg.submit_proc = cal.pbs_submit_proc;
  cfg.stat_proc = cal.pbs_stat_proc;
  cfg.del_proc = cal.pbs_del_proc;
  cfg.sched_cycle_proc = cal.pbs_sched_cycle;
  return cfg;
}

Server::Server(sim::Network& net, sim::HostId host, ServerConfig config)
    : net::RpcNode(net, host, config.port,
                   "pbs_server@" + net.host(host).name()),
      config_(std::move(config)),
      scheduler_(config_.sched) {
  state_.next_job_id = config_.job_id_base;
  for (const sim::Endpoint& mom : config_.moms) {
    NodeState n;
    n.host = mom.host;
    auto attrs = config_.node_attrs.find(mom.host);
    if (attrs != config_.node_attrs.end()) n.attrs = attrs->second;
    nodes_.push_back(std::move(n));
  }
  telemetry::Hub& hub = net.sim().telemetry();
  telemetry::Registry& m = hub.metrics();
  m_.jobs_queued = m.counter("pbs.jobs_queued");
  m_.jobs_launched = m.counter("pbs.jobs_launched");
  m_.jobs_completed = m.counter("pbs.jobs_completed");
  m_.sched_cycles = m.counter("pbs.sched_cycles");
  m_.replicas_dispatched = m.counter("pbs.replicas_dispatched");
  m_.replicas_reaped = m.counter("pbs.replicas_reaped");
  m_.reports_suppressed = m.counter("pbs.reports_suppressed");
  m_.jobs_requeued = m.counter("pbs.jobs_requeued");
  m_.heartbeat_misses = m.counter("pbs.heartbeat_misses");
  m_.node_failovers = m.counter("pbs.node_failovers");
  m_.node_recoveries = m.counter("pbs.node_recoveries");
  m_.queue_wait = m.histogram("pbs.queue_wait_us");
  m_.failover_detect = m.histogram("pbs.failover_detect_us");
  m_.preemptions = m.counter("pbs.sched.preemptions");
  m_.backfilled = m.counter("pbs.sched.backfilled");
  m_.array_expansions = m.counter("pbs.sched.array_expansions");
  m_.utilization = m.gauge("pbs.sched.utilization_pct");
  m_.policy_queue_wait = m.histogram("pbs.sched.queue_wait_us." +
                                    scheduler_.config().policy);
  tc_preempt_ = hub.trace().intern("pbs.preempt");
  tc_sched_ = hub.trace().intern("pbs.sched_cycle");
  tc_job_start_ = hub.trace().intern("pbs.job_start");
  tc_job_complete_ = hub.trace().intern("pbs.job_complete");
  tc_replica_ = hub.trace().intern("pbs.replica");
  tc_node_fail_ = hub.trace().intern("pbs.node_failover");
  recover();
  arm_checkpoint_timer();
  arm_heartbeat_timer();
  sched_timer_ = set_timer(config_.sched_interval, [this] {
    sched_timer_ = 0;
    request_sched_cycle();
  });
}

std::optional<Job> Server::find_job(JobId id) const {
  auto it = state_.jobs.find(id);
  if (it == state_.jobs.end()) return std::nullopt;
  return it->second;
}

size_t Server::count_in_state(JobState s) const {
  size_t n = 0;
  for (const auto& [id, job] : state_.jobs) {
    (void)id;
    if (job.state == s) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

void Server::on_request(sim::Payload request, sim::Endpoint from,
                        uint64_t rpc_id) {
  Op op;
  try {
    op = net::peek_tag<Op>(request);
  } catch (const net::WireError&) {
    return;
  }
  sim::Duration cost;
  switch (op) {
    case Op::kSubmit: cost = config_.submit_proc; break;
    case Op::kStat:
    case Op::kStatQuiet: cost = config_.stat_proc; break;
    case Op::kDelete:
    case Op::kSignal:
    case Op::kHold:
    case Op::kRelease:
    case Op::kPreempt: cost = config_.del_proc; break;
    case Op::kJobReport: cost = config_.del_proc; break;
    case Op::kDumpState:
    case Op::kLoadState: cost = config_.submit_proc; break;
    default:
      respond(from, rpc_id, net::encode(SimpleResponse{Status::kUnsupported}));
      return;
  }
  execute(cost, [this, request = std::move(request), from, rpc_id, op] {
    try {
      switch (op) {
        case Op::kSubmit:
          handle_submit(net::decode<SubmitRequest>(request), from, rpc_id);
          break;
        case Op::kStat:
          handle_stat(net::decode<StatRequest>(request), from, rpc_id);
          break;
        case Op::kStatQuiet:
          handle_quiet_stat(net::decode<QuietStatRequest>(request).stat, from,
                            rpc_id);
          break;
        case Op::kDelete:
          handle_delete(net::decode<DeleteRequest>(request), from, rpc_id);
          break;
        case Op::kSignal:
          handle_signal(net::decode<SignalRequest>(request), from, rpc_id);
          break;
        case Op::kHold:
          handle_hold(net::decode<HoldRequest>(request), from, rpc_id);
          break;
        case Op::kRelease:
          handle_release(net::decode<ReleaseRequest>(request), from, rpc_id);
          break;
        case Op::kPreempt:
          handle_preempt(net::decode<PreemptRequest>(request), from, rpc_id);
          break;
        case Op::kJobReport:
          handle_report(net::decode<JobReport>(request), from, rpc_id);
          break;
        case Op::kDumpState:
          handle_dump_state(from, rpc_id);
          break;
        case Op::kLoadState:
          handle_load_state(net::decode<LoadStateRequest>(request), from,
                            rpc_id);
          break;
        default:
          break;
      }
    } catch (const net::WireError& e) {
      JLOG(kWarn, "pbs") << name() << ": bad request: " << e.what();
      respond(from, rpc_id, net::encode(SimpleResponse{Status::kInternal}));
    }
  });
}

void Server::handle_submit(const SubmitRequest& req, sim::Endpoint from,
                           uint64_t rpc_id) {
  // A job-array request expands into `count` sub-jobs with consecutive ids
  // and FIFO ranks. Expansion happens here, inside the ordered command, so
  // every replica derives the identical sub-job set from one submit.
  uint32_t count = req.spec.array_count > 1 ? req.spec.array_count : 1;
  if (count > config_.max_array_size) {
    respond(from, rpc_id,
            net::encode(SubmitResponse{Status::kUnsupported, kInvalidJob,
                                           0}));
    return;
  }
  JobId base;
  if (req.forced_id != kInvalidJob) {
    for (JobId id = req.forced_id; id < req.forced_id + count; ++id) {
      if (state_.jobs.count(id)) {
        respond(from, rpc_id,
                net::encode(SubmitResponse{Status::kInvalidState,
                                               req.forced_id, 0}));
        return;
      }
    }
    base = req.forced_id;
    state_.next_job_id = std::max(state_.next_job_id, req.forced_id + count);
  } else {
    base = state_.next_job_id;
    state_.next_job_id += count;
  }
  for (uint32_t i = 0; i < count; ++i) {
    Job job;
    job.id = base + i;
    job.spec = req.spec;
    if (count > 1) {
      job.spec.array_index = static_cast<int32_t>(i);
      job.spec.name = req.spec.name + "[" + std::to_string(i) + "]";
    }
    job.state = JobState::kQueued;
    job.submit_time = sim().now();
    job.queue_rank = state_.next_rank++;
    ++state_.submissions;
    persist(state_.jobs.emplace(job.id, std::move(job)).first->second);
  }
  m_.jobs_queued.add(count);
  if (count > 1) m_.array_expansions.add(count);
  JLOG(kDebug, "pbs") << name() << ": queued job " << base << " ("
                      << req.spec.name << (count > 1 ? ", array" : "") << ")";
  respond(from, rpc_id,
          net::encode(SubmitResponse{Status::kOk, base, count}));
  request_sched_cycle();
}

/// Encodes the StatResponse straight from the table: the status, the count
/// of matching jobs, then each job -- the bytes net::encode(StatResponse)
/// would give, without copying the jobs into one first.
void Server::handle_stat(const StatRequest& req, sim::Endpoint from,
                         uint64_t rpc_id) {
  if (req.job_id != kInvalidJob) {
    auto it = state_.jobs.find(req.job_id);
    respond(from, rpc_id,
            it == state_.jobs.end()
                ? net::encode(Status::kUnknownJob, uint32_t{0})
                : net::encode(Status::kOk, uint32_t{1}, it->second));
    return;
  }
  auto matches = [&](const Job& job) {
    return req.include_complete || !job.terminal();
  };
  uint32_t count = 0;
  size_t job_bytes = 0;
  for (const auto& [id, job] : state_.jobs) {
    if (!matches(job)) continue;
    ++count;
    job_bytes += net::wire_size(job);
  }
  net::Writer w(net::wire_size(Status::kOk, count) + job_bytes);
  w(Status::kOk, count);
  for (const auto& [id, job] : state_.jobs) {
    if (matches(job)) w(job);
  }
  respond(from, rpc_id, w.take());
}

void Server::handle_quiet_stat(const StatRequest& req, sim::Endpoint from,
                               uint64_t rpc_id) {
  bool known = req.job_id == kInvalidJob || state_.jobs.count(req.job_id);
  respond(from, rpc_id,
          net::encode(SimpleResponse{known ? Status::kOk
                                           : Status::kUnknownJob}));
}

void Server::handle_delete(const DeleteRequest& req, sim::Endpoint from,
                           uint64_t rpc_id) {
  auto it = state_.jobs.find(req.job_id);
  if (it == state_.jobs.end()) {
    respond(from, rpc_id, net::encode(SimpleResponse{Status::kUnknownJob}));
    return;
  }
  Job& job = it->second;
  if (job.terminal()) {
    respond(from, rpc_id,
            net::encode(SimpleResponse{Status::kInvalidState}));
    return;
  }
  if (job.state == JobState::kRunning) {
    job.state = JobState::kExiting;
    job.cancelled = true;
    if (job.replica_hosts.empty()) {
      kill_on(job.exec_host, job.id);
    } else {
      for (sim::HostId h : job.replica_hosts) kill_on(h, job.id);
    }
  } else {
    job.state = JobState::kComplete;
    job.cancelled = true;
    job.end_time = sim().now();
  }
  persist(job);
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
  request_sched_cycle();
}

void Server::handle_signal(const SignalRequest& req, sim::Endpoint from,
                           uint64_t rpc_id) {
  auto it = state_.jobs.find(req.job_id);
  if (it == state_.jobs.end()) {
    respond(from, rpc_id, net::encode(SimpleResponse{Status::kUnknownJob}));
    return;
  }
  Job& job = it->second;
  if (job.state != JobState::kRunning) {
    respond(from, rpc_id,
            net::encode(SimpleResponse{Status::kInvalidState}));
    return;
  }
  // SIGTERM/SIGKILL terminate; anything else is delivered but has no
  // modelled effect.
  if (req.signal == 15 || req.signal == 9) {
    job.state = JobState::kExiting;
    job.cancelled = true;
    if (job.replica_hosts.empty()) {
      kill_on(job.exec_host, job.id);
    } else {
      for (sim::HostId h : job.replica_hosts) kill_on(h, job.id);
    }
    persist(job);
  }
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
}

void Server::handle_hold(const HoldRequest& req, sim::Endpoint from,
                         uint64_t rpc_id) {
  auto it = state_.jobs.find(req.job_id);
  if (it == state_.jobs.end()) {
    respond(from, rpc_id, net::encode(SimpleResponse{Status::kUnknownJob}));
    return;
  }
  Job& job = it->second;
  if (job.state != JobState::kQueued) {
    respond(from, rpc_id,
            net::encode(SimpleResponse{Status::kInvalidState}));
    return;
  }
  job.state = JobState::kHeld;
  persist(job);
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
}

void Server::handle_release(const ReleaseRequest& req, sim::Endpoint from,
                            uint64_t rpc_id) {
  auto it = state_.jobs.find(req.job_id);
  if (it == state_.jobs.end()) {
    respond(from, rpc_id, net::encode(SimpleResponse{Status::kUnknownJob}));
    return;
  }
  Job& job = it->second;
  if (job.state != JobState::kHeld) {
    respond(from, rpc_id,
            net::encode(SimpleResponse{Status::kInvalidState}));
    return;
  }
  job.state = JobState::kQueued;
  persist(job);
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
  request_sched_cycle();
}

void Server::handle_preempt(const PreemptRequest& req, sim::Endpoint from,
                            uint64_t rpc_id) {
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
  apply_preempt(req.job_id);
}

void Server::apply_preempt(JobId id) {
  preempt_inflight_.erase(id);
  auto it = state_.jobs.find(id);
  if (it == state_.jobs.end()) return;
  Job& job = it->second;
  if (job.state != JobState::kRunning) return;
  // Quiet kills: the requeued job's own death must not echo back as a
  // completion report (the quiet flag drops the report at the mom).
  if (job.replica_hosts.empty()) {
    kill_on(job.exec_host, job.id, /*quiet=*/true);
  } else {
    for (sim::HostId h : job.replica_hosts) kill_on(h, job.id, /*quiet=*/true);
  }
  free_nodes_of(job.id);
  job.state = JobState::kQueued;
  job.exec_host = sim::kInvalidHost;
  job.replica_hosts.clear();
  ++preempt_counts_[id];
  m_.preemptions.add(1);
  sim().telemetry().trace().instant(sim().now().us, host_id(), tc_preempt_,
                                    job.id, 0);
  JLOG(kInfo, "pbs") << name() << ": job " << id
                     << " preempted and requeued (rank " << job.queue_rank
                     << ")";
  persist(job);
  request_sched_cycle();
}

uint32_t Server::preempt_count(JobId id) const {
  auto it = preempt_counts_.find(id);
  return it == preempt_counts_.end() ? 0 : it->second;
}

void Server::handle_report(const JobReport& report, sim::Endpoint from,
                           uint64_t rpc_id) {
  // Always ack: the mom retries otherwise.
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
  auto it = state_.jobs.find(report.job_id);
  if (it == state_.jobs.end()) {
    JLOG(kDebug, "pbs") << name() << ": report for unknown job "
                        << report.job_id;
    return;
  }
  Job& job = it->second;
  // A duplicate report, or one the interceptor turned down.
  if (job.terminal() || (accept_report && !accept_report(report))) {
    m_.reports_suppressed.add(1);
    return;
  }
  complete_job(job, report);
  request_sched_cycle();
}

void Server::handle_dump_state(sim::Endpoint from, uint64_t rpc_id) {
  DumpStateResponse resp;
  resp.state = serialize_state();
  respond(from, rpc_id, net::encode(resp));
}

void Server::handle_load_state(const LoadStateRequest& req, sim::Endpoint from,
                               uint64_t rpc_id) {
  try {
    apply_state(net::decode<ServerState>(req.state));
    persist_table();
    respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
    request_sched_cycle();
  } catch (const net::WireError&) {
    respond(from, rpc_id, net::encode(SimpleResponse{Status::kInternal}));
  }
}

// ---------------------------------------------------------------------------
// Scheduling & launching
// ---------------------------------------------------------------------------

void Server::request_sched_cycle() {
  if (sched_pending_) return;
  sched_pending_ = true;
  execute(config_.sched_cycle_proc, [this] {
    sched_pending_ = false;
    run_sched_cycle();
  });
}

void Server::run_sched_cycle() {
  m_.sched_cycles.add(1);
  sim().telemetry().trace().instant(sim().now().us, host_id(), tc_sched_,
                                    state_.jobs.size(), nodes_.size());
  SchedDecisions decisions = scheduler_.cycle(state_.jobs, nodes_, sim().now());
  for (const LaunchDecision& d : decisions.launches) {
    auto it = state_.jobs.find(d.job);
    if (it == state_.jobs.end()) continue;
    if (d.replica_sets.empty()) {
      launch(it->second, {d.nodes});
    } else {
      launch(it->second, d.replica_sets);
    }
  }
  if (decisions.backfilled > 0) m_.backfilled.add(decisions.backfilled);
  for (JobId victim : decisions.preemptions) {
    // Damping: the pure policy re-emits the victim every cycle until the
    // ordered requeue lands; multicast (or apply) it once.
    if (!preempt_inflight_.insert(victim).second) continue;
    if (request_preempt) {
      request_preempt(victim);
    } else {
      apply_preempt(victim);
    }
  }
  update_utilization();
  if (sched_timer_ == 0) {
    sched_timer_ = set_timer(config_.sched_interval, [this] {
      sched_timer_ = 0;
      request_sched_cycle();
    });
  }
}

void Server::launch(Job& job,
                    const std::vector<std::vector<sim::HostId>>& sets) {
  if (job.state != JobState::kQueued || sets.empty() || sets.front().empty())
    return;
  job.state = JobState::kRunning;
  job.start_time = sim().now();
  job.exec_host = sets.front().front();
  job.replica_hosts.clear();
  for (const std::vector<sim::HostId>& set : sets) {
    job.replica_hosts.push_back(set.front());
    for (sim::HostId h : set) {
      if (NodeState* n = node_by_host(h)) n->assign(job.id);
    }
  }
  m_.jobs_launched.add(1);
  m_.replicas_dispatched.add(sets.size());
  m_.queue_wait.record((job.start_time - job.submit_time).us);
  m_.policy_queue_wait.record((job.start_time - job.submit_time).us);
  sim().telemetry().trace().instant(job.start_time.us, host_id(),
                                    tc_job_start_, job.id, job.exec_host);
  if (sets.size() > 1) {
    sim().telemetry().trace().instant(job.start_time.us, host_id(),
                                      tc_replica_, job.id, sets.size());
  }
  persist(job);
  if (on_job_start) on_job_start(job);

  // Each replica set's mother superior (first node) runs a copy of the job.
  for (const std::vector<sim::HostId>& set : sets) {
    send_replica_launch(job.id, set.front());
  }
}

void Server::send_replica_launch(JobId id, sim::HostId mom_host) {
  auto it = state_.jobs.find(id);
  if (it == state_.jobs.end()) return;
  MomLaunchRequest req{it->second, host_id()};
  net::CallOptions options;
  options.timeout = config_.mom_launch_timeout;
  call(mom_endpoint(mom_host), net::encode(req),
       [this, id, mom_host](std::optional<sim::Payload> resp) {
         if (!resp.has_value()) {
           // Mom unreachable: declare the node dead (which drops this
           // replica and requeues the job if it was the last one).
           JLOG(kWarn, "pbs") << name() << ": launch of job " << id << " on "
                              << mom_host << " timed out";
           note_node_failed(mom_host);
           return;
         }
         try {
           MomLaunchResponse launch = net::decode<MomLaunchResponse>(*resp);
           if (launch.status != Status::kOk) replica_launch_failed(id, mom_host);
         } catch (const net::WireError&) {
         }
       },
       options);
}

/// A mom refused a launch attempt: drop that replica; requeue when it was
/// the last one. (A timed-out launch goes through note_node_failed instead.)
void Server::replica_launch_failed(JobId id, sim::HostId mom_host) {
  auto it = state_.jobs.find(id);
  if (it == state_.jobs.end()) return;
  Job& job = it->second;
  if (!job.active()) return;
  auto& reps = job.replica_hosts;
  reps.erase(std::remove(reps.begin(), reps.end(), mom_host), reps.end());
  if (NodeState* n = node_by_host(mom_host)) n->release(id);
  if (!reps.empty()) {
    if (job.exec_host == mom_host) job.exec_host = reps.front();
    persist(job);
    return;  // surviving replicas carry the job
  }
  free_nodes_of(id);
  job.state = JobState::kQueued;
  job.exec_host = sim::kInvalidHost;
  m_.jobs_requeued.add(1);
  persist(job);
  request_sched_cycle();
}

void Server::complete_job(Job& job, const JobReport& report) {
  job.state = JobState::kComplete;
  job.exit_code = report.exit_code;
  job.cancelled = job.cancelled || report.cancelled;
  if (report.start_time.us > 0) job.start_time = report.start_time;
  job.end_time = report.end_time.us > 0 ? report.end_time : sim().now();
  reap_losers(job, report.mom_host);
  job.replica_hosts.clear();
  free_nodes_of(job.id);
  m_.jobs_completed.add(1);
  sim().telemetry().trace().instant(
      sim().now().us, host_id(), tc_job_complete_, job.id,
      static_cast<uint64_t>(static_cast<int64_t>(job.exit_code)));
  persist(job);
  JLOG(kDebug, "pbs") << name() << ": job " << job.id << " complete (exit "
                      << job.exit_code << ")";
  if (on_job_complete) on_job_complete(job);
}

/// First-to-finish wins: kill every other replica's instance. Kills are
/// idempotent at the mom (a completed instance ignores them), so every
/// head reaping the same losers is safe.
void Server::reap_losers(const Job& job, sim::HostId winner) {
  for (sim::HostId h : job.replica_hosts) {
    if (h == winner || h == sim::kInvalidHost) continue;
    m_.replicas_reaped.add(1);
    sim().telemetry().trace().instant(sim().now().us, host_id(), tc_replica_,
                                      job.id, h);
    kill_on(h, job.id);
  }
}

void Server::kill_on(sim::HostId mom_host, JobId id, bool quiet) {
  MomKillRequest kill{id, host_id(), quiet};
  call(mom_endpoint(mom_host), net::encode(kill),
       [](std::optional<sim::Payload>) {});
}

void Server::note_node_failed(sim::HostId host) {
  NodeState* n = node_by_host(host);
  if (n == nullptr || !n->up) return;
  n->up = false;
  n->running.clear();
  m_.node_failovers.add(1);
  sim().telemetry().trace().instant(sim().now().us, host_id(), tc_node_fail_,
                                    host, 0);
  auto first_miss = hb_first_miss_.find(host);
  if (first_miss != hb_first_miss_.end()) {
    m_.failover_detect.record((sim().now() - first_miss->second).us);
    hb_first_miss_.erase(first_miss);
  }
  JLOG(kWarn, "pbs") << name() << ": compute node " << host
                     << " declared dead";
  // Drop the dead replica from every active job; requeue jobs left without
  // a live replica (automatic failover of non-replicated jobs).
  bool requeued = false;
  for (auto& [id, job] : state_.jobs) {
    if (!job.active()) continue;
    auto& reps = job.replica_hosts;
    bool on_dead = job.exec_host == host ||
                   std::find(reps.begin(), reps.end(), host) != reps.end();
    if (!on_dead) continue;
    // Fence the declared-dead node: failure detection is only a presumption,
    // and a falsely-accused mom still runs its instance to completion --
    // which, with the job requeued and relaunched elsewhere, is a second
    // real execution. The quiet kill terminates the orphan without a death
    // echo (same idiom as preemption); if the node really is down the RPC
    // just drops.
    kill_on(host, id, /*quiet=*/true);
    reps.erase(std::remove(reps.begin(), reps.end(), host), reps.end());
    if (!reps.empty()) {
      if (job.exec_host == host) job.exec_host = reps.front();
      persist(job);
      continue;  // surviving replicas carry the job
    }
    if (job.state == JobState::kExiting) {
      // The job was being cancelled and its last mom died before reporting:
      // nobody is left to report, so complete it as cancelled here.
      JobReport synth;
      synth.job_id = id;
      synth.exit_code = 271;
      synth.cancelled = true;
      complete_job(job, synth);
      continue;
    }
    free_nodes_of(id);
    job.state = JobState::kQueued;
    job.exec_host = sim::kInvalidHost;
    m_.jobs_requeued.add(1);
    requeued = true;
    persist(job);
    JLOG(kInfo, "pbs") << name() << ": job " << id
                       << " lost its last replica; requeued";
  }
  if (on_node_failed) on_node_failed(host);
  if (requeued) request_sched_cycle();
}

void Server::note_node_recovered(sim::HostId host) {
  NodeState* n = node_by_host(host);
  if (n == nullptr || n->up) return;
  n->up = true;
  hb_misses_[host] = 0;
  hb_first_miss_.erase(host);
  m_.node_recoveries.add(1);
  JLOG(kInfo, "pbs") << name() << ": compute node " << host
                     << " back in service";
  request_sched_cycle();
}

void Server::free_nodes_of(JobId id) {
  for (NodeState& n : nodes_) n.release(id);
}

void Server::update_utilization() {
  uint64_t total = 0;
  uint64_t busy = 0;
  for (const NodeState& n : nodes_) {
    if (!n.up) continue;
    total += n.attrs.slots;
    busy += std::min<uint64_t>(n.used_slots(), n.attrs.slots);
  }
  m_.utilization.set(total == 0 ? 0
                               : static_cast<int64_t>(busy * 100 / total));
}

NodeState* Server::node_by_host(sim::HostId host) {
  for (NodeState& n : nodes_) {
    if (n.host == host) return &n;
  }
  return nullptr;
}

sim::Endpoint Server::mom_endpoint(sim::HostId host) const {
  for (const sim::Endpoint& m : config_.moms) {
    if (m.host == host) return m;
  }
  return {host, config_.moms.empty() ? sim::Port(15002)
                                     : config_.moms.front().port};
}

// ---------------------------------------------------------------------------
// Heartbeat failure detection
// ---------------------------------------------------------------------------

void Server::arm_heartbeat_timer() {
  if (config_.heartbeat_interval.us <= 0) return;
  heartbeat_timer_ = set_timer(config_.heartbeat_interval, [this] {
    heartbeat_timer_ = 0;
    run_heartbeat_round();
    arm_heartbeat_timer();
  });
}

void Server::run_heartbeat_round() {
  for (const sim::Endpoint& mom : config_.moms) {
    MomPingRequest ping{host_id(), ++hb_seq_};
    net::CallOptions options;
    options.timeout = config_.heartbeat_timeout;
    sim::HostId h = mom.host;
    call(mom, net::encode(ping),
         [this, h](std::optional<sim::Payload> resp) {
           NodeState* n = node_by_host(h);
           if (n == nullptr) return;
           if (resp.has_value()) {
             hb_misses_[h] = 0;
             hb_first_miss_.erase(h);
             note_node_recovered(h);
             return;
           }
           m_.heartbeat_misses.add(1);
           hb_first_miss_.try_emplace(h, sim().now());
           if (++hb_misses_[h] >= config_.heartbeat_miss_limit && n->up) {
             note_node_failed(h);
           }
         },
         options);
  }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

void Server::apply_state(ServerState state) {
  for (auto& [id, job] : state.jobs) {
    // Jobs that were running when the state was captured lost their parent
    // server: they restart from the queue (Section 2: applications have to
    // be restarted after an active/standby failover).
    if (job.active()) {
      job.state = JobState::kQueued;
      job.exec_host = sim::kInvalidHost;
      job.replica_hosts.clear();
    }
  }
  state_ = std::move(state);
  preempt_inflight_.clear();
  for (NodeState& node : nodes_) node.running.clear();
}

std::map<std::string, std::string>& Server::storage() {
  if (config_.shared_storage) return *config_.shared_storage;
  return host().disk();
}

void Server::persist(const Job& job) {
  if (!config_.persist) return;
  if (config_.checkpoint_interval.us > 0) return;  // timer-driven instead
  write_job(job);
  write_meta();
}

void Server::persist_table() {
  if (!config_.persist) return;
  if (config_.checkpoint_interval.us > 0) return;  // timer-driven instead
  write_table();
}

void Server::write_table() {
  std::map<std::string, std::string>& disk = storage();
  auto it = disk.lower_bound(std::string(kJobKeyPrefix));
  while (it != disk.end() && is_job_key(it->first)) {
    if (state_.jobs.count(job_key_id(it->first)) != 0) {
      ++it;
    } else {
      it = disk.erase(it);
    }
  }
  for (const auto& [id, job] : state_.jobs) write_job(job);
  write_meta();
}

void Server::write_job(const Job& job) {
  store(storage()[job_key(job.id)], net::encode(job));
}

void Server::write_meta() {
  store(storage()[std::string(kMetaKey)],
        net::encode(state_.next_job_id, state_.next_rank, state_.submissions));
}

void Server::arm_checkpoint_timer() {
  if (!config_.persist || config_.checkpoint_interval.us <= 0) return;
  checkpoint_timer_ = set_timer(config_.checkpoint_interval, [this] {
    write_table();
    arm_checkpoint_timer();
  });
}

void Server::recover() {
  if (!config_.persist) return;
  const std::map<std::string, std::string>& disk = storage();
  auto meta = disk.find(std::string(kMetaKey));
  auto first = disk.lower_bound(std::string(kJobKeyPrefix));
  bool has_jobs = first != disk.end() && is_job_key(first->first);
  if (meta == disk.end() && !has_jobs) return;  // nothing persisted yet
  // Decode every record before touching the table: a malformed one throws
  // and leaves the server as it was.
  try {
    if (meta == disk.end()) throw net::WireError("job records without meta");
    ServerState state;
    sim::Payload counters = payload_of(meta->second);
    net::Reader r(counters);
    r(state.next_job_id, state.next_rank, state.submissions);
    r.expect_done();
    for (auto it = first; it != disk.end() && is_job_key(it->first); ++it) {
      Job job;
      net::decode(payload_of(it->second), job);
      if (job.id == kInvalidJob || job.id != job_key_id(it->first))
        throw net::WireError("job record under another job's key");
      state.jobs.emplace(job.id, std::move(job));
    }
    apply_state(std::move(state));
    JLOG(kInfo, "pbs") << name() << ": recovered " << state_.jobs.size()
                       << " jobs from storage";
  } catch (const net::WireError& e) {
    JLOG(kError, "pbs") << name() << ": corrupt state: " << e.what();
  }
}

void Server::preload_queued(uint64_t count, const JobSpec& spec) {
  auto hint = state_.jobs.end();
  for (uint64_t i = 0; i < count; ++i) {
    Job job;
    job.id = state_.next_job_id++;
    job.spec = spec;
    job.state = JobState::kQueued;
    job.submit_time = sim().now();
    job.queue_rank = state_.next_rank++;
    hint = state_.jobs.emplace_hint(hint, job.id, std::move(job));
    ++state_.submissions;
    persist(hint->second);
  }
  m_.jobs_queued.add(count);
}

void Server::reset_state() {
  state_.jobs.clear();
  state_.next_job_id = config_.job_id_base;
  state_.next_rank = 1;
  state_.submissions = 0;
  preempt_inflight_.clear();
  preempt_counts_.clear();
  for (NodeState& n : nodes_) n.running.clear();
  persist_table();
}

void Server::on_crash() {
  net::RpcNode::on_crash();
  sched_timer_ = 0;
  checkpoint_timer_ = 0;
  heartbeat_timer_ = 0;
  sched_pending_ = false;
  hb_misses_.clear();
  hb_first_miss_.clear();
  preempt_inflight_.clear();
}

void Server::on_restart() {
  // Fresh daemon: volatile state resets, then recovery from storage.
  state_.jobs.clear();
  state_.next_job_id = config_.job_id_base;
  state_.next_rank = 1;
  state_.submissions = 0;
  preempt_inflight_.clear();
  preempt_counts_.clear();
  for (NodeState& n : nodes_) {
    n.up = true;
    n.running.clear();
  }
  recover();
  arm_checkpoint_timer();
  arm_heartbeat_timer();
  sched_timer_ = set_timer(config_.sched_interval, [this] {
    sched_timer_ = 0;
    request_sched_cycle();
  });
}

}  // namespace pbs
