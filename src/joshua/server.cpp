#include "joshua/server.h"

#include <algorithm>

#include "sim/calibration.h"
#include "util/logging.h"

namespace joshua {

// The command frame is the rsm core's; GroupOp::kCommand is its tag.
static_assert(static_cast<uint8_t>(GroupOp::kCommand) == rsm::kCommandTag);

namespace {
/// An error response shaped for the op the client sent, so its decoder
/// always understands the rejection.
sim::Payload error_response(pbs::Op op, pbs::Status status) {
  switch (op) {
    case pbs::Op::kSubmit:
      return net::encode(pbs::SubmitResponse{status, pbs::kInvalidJob});
    case pbs::Op::kStat:
      return net::encode(pbs::StatResponse{status, {}});
    default:
      return net::encode(pbs::SimpleResponse{status});
  }
}

/// The job a stat/delete/hold/release names (kInvalidJob for other ops).
/// Throws net::WireError on a malformed request.
pbs::JobId target_job(pbs::Op op, const sim::Payload& request) {
  switch (op) {
    case pbs::Op::kStat:
      return net::decode<pbs::StatRequest>(request).job_id;
    case pbs::Op::kDelete:
      return net::decode<pbs::DeleteRequest>(request).job_id;
    case pbs::Op::kHold:
      return net::decode<pbs::HoldRequest>(request).job_id;
    case pbs::Op::kRelease:
      return net::decode<pbs::ReleaseRequest>(request).job_id;
    default: return pbs::kInvalidJob;
  }
}

/// The request a head that does not answer the client sends its PBS: a
/// stat becomes kStatQuiet (same bytes, other type byte), which PBS charges
/// as a stat but answers with the status alone. The state-changing ops go
/// as they are.
sim::Payload quiet_stat(const sim::Payload& request) {
  if (request.empty() || request[0] != static_cast<uint8_t>(pbs::Op::kStat))
    return request;
  const auto quiet = static_cast<uint8_t>(pbs::Op::kStatQuiet);
  return request.slice(1, request.size() - 1).prepend(&quiet, 1);
}

/// Did a replayed command produce the response the log implies it must?
/// The compacted log only carries commands about live jobs, so a failure
/// status here means the joiner's rebuilt PBS state diverged from the
/// group's (the paper's replay-consistency hazard).
bool replay_response_ok(const sim::Payload& request,
                        const sim::Payload& response) {
  try {
    switch (net::peek_tag<pbs::Op>(request)) {
      case pbs::Op::kSubmit:
        return net::decode<pbs::SubmitResponse>(response).status ==
               pbs::Status::kOk;
      case pbs::Op::kDelete:
      case pbs::Op::kHold:
      case pbs::Op::kRelease:
        return net::decode<pbs::SimpleResponse>(response).status ==
               pbs::Status::kOk;
      default:
        return true;
    }
  } catch (const net::WireError&) {
    return false;
  }
}
}  // namespace

JoshuaConfig::JoshuaConfig() {
  client_port = 17000;  // jsub/jstat/jdel + jmutex/jdone RPCs
  request_proc = sim::msec(6);
  relay_proc = sim::msec(4);
}

JoshuaConfig joshua_config_from(const sim::Calibration& cal,
                                std::vector<sim::HostId> head_hosts) {
  JoshuaConfig cfg;
  cfg.group = gcs::group_config_from(cal);
  cfg.group.group_name = "joshua";
  cfg.group.peers = std::move(head_hosts);
  cfg.request_proc = cal.joshua_cmd_proc;
  cfg.exec_proc = cal.joshua_exec_proc;
  cfg.relay_proc = cal.joshua_relay_proc;
  return cfg;
}

Server::Server(sim::Network& net, sim::HostId host, JoshuaConfig config,
               pbs::Server& local_pbs)
    : config_(std::move(config)),
      local_pbs_(local_pbs),
      node_(net, host, config_, this, [this, name = net.host(host).name()](
                                          telemetry::Hub& hub) {
        return instrument(hub, name);
      }) {
  // Chain onto the PBS completion callback for command-log compaction.
  auto previous = std::move(local_pbs_.on_job_complete);
  local_pbs_.on_job_complete = [this, previous](const pbs::Job& job) {
    terminal_jobs_.insert(job.id);
    if (previous) previous(job);
  };
  // Ordered duplicate-completion suppression: with r-way replication the
  // mom reports only confirm what the ordered MutexDone already decided.
  local_pbs_.accept_report = [this](const pbs::JobReport& report) {
    return filter_report(report);
  };
  // Compute-node failure -> ordered mutex revocation, so every head
  // releases the dead mom's claims at the same point in the stream.
  auto prev_failed = std::move(local_pbs_.on_node_failed);
  local_pbs_.on_node_failed = [this, prev_failed](sim::HostId mom) {
    // One revoke per detected failure across the whole group: the first
    // delivered revoke arms the damping set on every head before their
    // own detectors fire, so late detections stay local.
    if (node_.in_service() && revoked_moms_.insert(mom).second)
      node_.order(net::encode(GroupMutexRevoke{mom}));
    if (prev_failed) prev_failed(mom);
  };
  // Preemption decisions go through the ordered stream: every head's pure
  // policy picks the same victim from the same replicated state, so each
  // head multicasts it once (the PBS server damps re-emission) and the
  // first delivery requeues the victim everywhere at the same point.
  // Later deliveries are no-ops (apply_preempt ignores non-running jobs).
  local_pbs_.request_preempt = [this](pbs::JobId victim) {
    if (node_.in_service()) node_.order(net::encode(GroupPreempt{victim}));
  };
}

rsm::Telemetry Server::instrument(telemetry::Hub& hub,
                                  const std::string& host) {
  telemetry::Registry& m = hub.metrics();
  rsm::Telemetry core;
  core.ordered = m.counter("joshua.commands_intercepted");
  m_.commands_executed = m.counter("joshua.commands_executed");
  m_.replays_applied = m.counter("joshua.replays_applied");
  m_.mutex_grants = m.counter("joshua.mutex_grants");
  m_.mutex_denials = m.counter("joshua.mutex_denials");
  m_.mutex_revokes = m.counter("joshua.mutex_revokes");
  m_.dup_completions_suppressed =
      m.counter("joshua.dup_completions_suppressed");
  m_.ordered_completions = m.counter("joshua.ordered_completions");
  m_.preempts_ordered = m.counter("joshua.preempts_ordered");
  m_.reports_rejected = m.counter("joshua.reports_rejected");
  m_.replay_divergence = m.counter("joshua.replay_divergence." + host);
  // "pbs.jstat_local": stat queries served from the local replica, the
  // read path that never pays for total order.
  core.local_reads = m.counter("pbs.jstat_local");
  m_.shard_rejects = m.counter("joshua.shard_rejects");
  core.order_latency = m.histogram("joshua.intercept_to_reply_us");
  core.local_latency = m.histogram("joshua.jstat_local_us");
  m_.jmutex_wait = m.histogram("joshua.jmutex_wait_us");
  core.order_span = hub.trace().intern("joshua.command");
  tc_replay_ = hub.trace().intern("joshua.replay");
  core.view_span = hub.trace().intern("joshua.view");
  tc_revoke_ = hub.trace().intern("joshua.mutex_revoke");
  return core;
}

void Server::call_local_pbs(
    sim::Payload request,
    std::function<void(std::optional<sim::Payload>)> done) {
  net::CallOptions options;
  options.timeout = config_.local_rpc_timeout;
  node_.call({node_.host_id(), config_.pbs_port}, std::move(request),
             std::move(done), options);
}

// ---------------------------------------------------------------------------
// Client commands (the core's admit and apply hooks)
// ---------------------------------------------------------------------------

rsm::Admit Server::admit(const sim::Payload& request,
                         const rsm::Caller& caller) {
  if (request.empty()) return rsm::Admit::kHandled;
  uint8_t tag = request[0];
  if (tag == static_cast<uint8_t>(PluginOp::kJMutex) ||
      tag == static_cast<uint8_t>(PluginOp::kJDone)) {
    try {
      if (tag == static_cast<uint8_t>(PluginOp::kJMutex)) {
        handle_jmutex(net::decode<JMutexRequest>(request), caller);
      } else {
        handle_jdone(net::decode<JDoneRequest>(request), caller);
      }
    } catch (const net::WireError& e) {
      JLOG(kWarn, "joshua") << node_.name()
                            << ": bad plugin request: " << e.what();
    }
    return rsm::Admit::kHandled;
  }
  auto op = static_cast<pbs::Op>(tag);
  auto reject = [&](pbs::Status status) {
    node_.reply(caller, error_response(op, status));
    return rsm::Admit::kHandled;
  };
  bool hold = op == pbs::Op::kHold || op == pbs::Op::kRelease;
  // Replay-based state transfer cannot reproduce hold state at a joining
  // head (Section 4): JOSHUA v0.1 rejects jhold/jrls; the snapshot transfer
  // mode lifts the restriction. Anything else (no qsig equivalent etc.):
  // "The original PBS command may be executed independently of JOSHUA."
  if (hold ? config_.transfer == TransferMode::kReplay
           : op != pbs::Op::kSubmit && op != pbs::Op::kStat &&
                 op != pbs::Op::kDelete)
    return reject(pbs::Status::kUnsupported);
  // Federation: commands naming a job id outside this shard's block can
  // never succeed here (the id was issued by another shard's replicas), so
  // reject them up front instead of ordering a guaranteed failure.
  if (config_.shard.sharded()) {
    pbs::JobId target = pbs::kInvalidJob;
    try {
      target = target_job(op, request);
    } catch (const net::WireError&) {
      return rsm::Admit::kHandled;
    }
    if (target != pbs::kInvalidJob && !config_.shard.owns(target)) {
      m_.shard_rejects.add(1);
      return reject(pbs::Status::kUnknownJob);
    }
  }
  // Local-read path (read_local): a member's replica holds the same
  // totally-ordered prefix as every peer, so a stat can be answered off the
  // colocated PBS without a group round -- unless a replay transfer is
  // still rebuilding the table, in which case the ordered path (which holds
  // commands until the replay drains) stays authoritative.
  if (op == pbs::Op::kStat && !replaying_)
    return rsm::Admit::kLocal;
  return rsm::Admit::kOrder;
}

sim::Payload Server::unavailable(const sim::Payload& request) const {
  if (request.empty()) return {};
  return error_response(static_cast<pbs::Op>(request[0]),
                        pbs::Status::kServerBusy);
}

bool Server::on_ordered(rsm::Command& cmd) {
  if (replaying_) {
    held_commands_.push_back(std::move(cmd));
    return false;
  }
  m_.commands_executed.add(1);
  // Logged at delivery, so a state transfer captured before the apply
  // stage finishes still carries the command.
  cmd.tag = log_command(cmd.request);
  return true;
}

void Server::apply_async(const sim::Payload& request, uint64_t tag,
                         bool answers, ApplyDone done) {
  call_local_pbs(answers ? request : quiet_stat(request),
                 [this, tag, request, done = std::move(done)](
                     std::optional<sim::Payload> response) {
                   if (response.has_value())
                     note_command_result(tag, request, *response);
                   done(std::move(response));
                 });
}

void Server::apply_op(const sim::Payload& op) {
  try {
    switch (net::peek_tag<GroupOp>(op)) {
      case GroupOp::kCommand:
        break;  // the core's frame; never handed to the service
      case GroupOp::kMutexReq:
        apply_mutex_req(net::decode<GroupMutexReq>(op));
        break;
      case GroupOp::kMutexDone:
        apply_mutex_done(net::decode<GroupMutexDone>(op));
        break;
      case GroupOp::kMutexRevoke:
        apply_mutex_revoke(net::decode<GroupMutexRevoke>(op));
        break;
      case GroupOp::kPreempt:
        apply_group_preempt(net::decode<GroupPreempt>(op));
        break;
    }
  } catch (const net::WireError& e) {
    JLOG(kWarn, "joshua") << node_.name()
                          << ": bad group message: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Command log (replay-mode state transfer)
// ---------------------------------------------------------------------------

uint64_t Server::log_command(const sim::Payload& request) {
  pbs::Op op;
  try {
    op = net::peek_tag<pbs::Op>(request);
  } catch (const net::WireError&) {
    return 0;
  }
  if (op != pbs::Op::kSubmit && op != pbs::Op::kDelete &&
      op != pbs::Op::kHold && op != pbs::Op::kRelease) {
    return 0;  // reads do not change state
  }
  LogEntry entry;
  entry.request = request;
  try {
    entry.job = target_job(op, request);  // a submit learns it at apply
  } catch (const net::WireError&) {
  }
  command_log_.push_back(std::move(entry));
  return command_log_.size();
}

void Server::note_command_result(uint64_t log_pos, const sim::Payload& request,
                                 const sim::Payload& response) {
  pbs::Op op;
  try {
    op = net::peek_tag<pbs::Op>(request);
  } catch (const net::WireError&) {
    return;
  }
  if (op == pbs::Op::kSubmit) {
    try {
      pbs::SubmitResponse sub = net::decode<pbs::SubmitResponse>(response);
      if (sub.status == pbs::Status::kOk) {
        // An array submit owns [job_id, job_id + count); track the top id.
        pbs::JobId top = sub.job_id + (sub.count > 1 ? sub.count - 1 : 0);
        if (max_job_id_seen_ == pbs::kInvalidJob || top > max_job_id_seen_)
          max_job_id_seen_ = top;
        // The submit's own log entry: overlapping submits answer in any
        // order, so matching by position in the log would swap their ids.
        if (log_pos != 0 && log_pos <= command_log_.size())
          command_log_[log_pos - 1].job = sub.job_id;
      }
    } catch (const net::WireError&) {
    }
  } else if (op == pbs::Op::kDelete) {
    try {
      terminal_jobs_.insert(net::decode<pbs::DeleteRequest>(request).job_id);
    } catch (const net::WireError&) {
    }
  }
}

sim::Payload Server::export_mutex_table() const {
  // The arbitration table is replicated decision state, same as the job
  // queue: a joiner must arbitrate stale relaunches (its replay rebuilds
  // running jobs as queued) against the claims the group already delivered,
  // or it grants a second real execution on a fresh mom.
  MutexTable table;
  for (const auto& [job, state] : mutexes_) {
    MutexEntry e;
    e.job = job;
    e.max_real = state.max_real;
    e.done = state.done;
    e.winner_mom = state.winner_mom;
    e.exit_code = state.exit_code;
    for (const auto& [mom, head] : state.claims)
      e.claims.push_back(MutexClaim{mom, head});
    table.entries.push_back(std::move(e));
  }
  table.terminal.assign(terminal_jobs_.begin(), terminal_jobs_.end());
  table.revoked.assign(revoked_moms_.begin(), revoked_moms_.end());
  return net::encode(table);
}

sim::Payload Server::snapshot() const {
  if (config_.transfer == TransferMode::kSnapshot) {
    return net::encode(TransferEnvelope{TransferKind::kSnapshot,
                                        local_pbs_.dump_state_blob(),
                                        export_mutex_table()});
  }
  // Compacted command log: drop commands about jobs that already reached a
  // terminal state (replaying them would re-run finished work). Submits are
  // rewritten to carry their original job id so the joiner rebuilds an
  // identical queue.
  CommandLog log;
  for (const LogEntry& entry : command_log_) {
    try {
      if (net::peek_tag<pbs::Op>(entry.request) == pbs::Op::kSubmit &&
          entry.job != pbs::kInvalidJob) {
        auto submit = net::decode<pbs::SubmitRequest>(entry.request);
        uint32_t count =
            submit.spec.array_count > 1 ? submit.spec.array_count : 1;
        if (count == 1) {
          if (terminal_jobs_.count(entry.job)) continue;  // compacted away
          submit.forced_id = entry.job;
          log.requests.push_back(net::encode(submit));
          continue;
        }
        // Array submit: sub-jobs reach terminal state independently, so the
        // whole entry compacts only once every id in [base, base+count) is
        // terminal. A partially finished array is rewritten as individual
        // forced-id submits for the live sub-jobs -- replaying the original
        // array would resurrect finished sub-jobs as queued phantoms (and
        // re-execute them, breaking exactly-once).
        for (uint32_t i = 0; i < count; ++i) {
          pbs::JobId sub_id = entry.job + i;
          if (terminal_jobs_.count(sub_id)) continue;
          pbs::SubmitRequest one = submit;
          one.forced_id = sub_id;
          one.spec.array_count = 0;
          one.spec.array_index = static_cast<int32_t>(i);
          one.spec.name = submit.spec.name + "[" + std::to_string(i) + "]";
          log.requests.push_back(net::encode(one));
        }
        continue;
      }
    } catch (const net::WireError&) {
    }
    if (entry.job != pbs::kInvalidJob && terminal_jobs_.count(entry.job))
      continue;
    log.requests.push_back(entry.request);
  }
  if (max_job_id_seen_ != pbs::kInvalidJob)
    log.next_job_id = max_job_id_seen_ + 1;
  JLOG(kInfo, "joshua") << node_.name() << ": serving state transfer ("
                        << log.requests.size() << " commands to replay)";
  return net::encode(TransferEnvelope{TransferKind::kReplayLog,
                                      net::encode(log), export_mutex_table()});
}

void Server::install_mutex_table(const sim::Payload& blob) {
  // A joiner's own arbitration state is stale by construction: MutexReq and
  // MutexDone messages delivered while it was out of the view are gone for
  // good, and a retained !done entry would reject the job's completion
  // reports forever. Replace it wholesale with the donor's table, which is
  // consistent with the stream position of the capture -- deliveries after
  // it update joiner and donor identically.
  mutexes_.clear();
  mutex_waiters_.clear();  // the moms' pending RPCs time out and rotate
  mutex_cast_.clear();
  revoked_moms_.clear();
  if (blob.empty()) return;
  MutexTable table;
  try {
    table = net::decode<MutexTable>(blob);
  } catch (const net::WireError& e) {
    JLOG(kError, "joshua") << node_.name() << ": corrupt mutex table: " << e.what();
    return;
  }
  for (const MutexEntry& e : table.entries) {
    MutexState& state = mutexes_[e.job];
    state.max_real = e.max_real;
    state.done = e.done;
    state.winner_mom = e.winner_mom;
    state.exit_code = e.exit_code;
    for (const MutexClaim& c : e.claims)
      state.claims.emplace_back(c.mom, c.head);
  }
  terminal_jobs_.insert(table.terminal.begin(), table.terminal.end());
  revoked_moms_.insert(table.revoked.begin(), table.revoked.end());
  JLOG(kInfo, "joshua") << node_.name() << ": installed mutex table ("
                        << table.entries.size() << " entries, "
                        << table.terminal.size() << " terminal)";
}

void Server::install(const sim::Payload& state) {
  TransferEnvelope env;
  try {
    env = net::decode<TransferEnvelope>(state);
  } catch (const net::WireError& e) {
    JLOG(kError, "joshua") << node_.name() << ": bad state blob: " << e.what();
    return;
  }
  auto& [kind, body, mutex_blob] = env;
  install_mutex_table(mutex_blob);
  if (kind == TransferKind::kSnapshot) {
    try {
      local_pbs_.load_state_blob(body);
      JLOG(kInfo, "joshua") << node_.name() << ": snapshot state installed";
    } catch (const net::WireError& e) {
      JLOG(kError, "joshua") << node_.name() << ": corrupt snapshot: " << e.what();
    }
    return;
  }
  // Replay mode: apply the commands through the service interface, in
  // order, holding any newly delivered commands until the replay finishes.
  // The paper's joiner starts with a freshly installed TORQUE; wipe any
  // stale local state (e.g. the pre-crash queue recovered from disk) first.
  local_pbs_.reset_state();
  try {
    CommandLog log = net::decode<CommandLog>(body);
    replay_queue_.assign(log.requests.begin(), log.requests.end());
    if (log.next_job_id != 0) {
      // Resume the donor's id sequence even though the compaction dropped
      // the terminal tail; otherwise this head's next submit would reuse an
      // id the group already handed out and the tables would fork.
      local_pbs_.bump_next_job_id(log.next_job_id);
      if (max_job_id_seen_ == pbs::kInvalidJob ||
          log.next_job_id - 1 > max_job_id_seen_)
        max_job_id_seen_ = log.next_job_id - 1;
    }
  } catch (const net::WireError& e) {
    JLOG(kError, "joshua") << node_.name() << ": corrupt command log: " << e.what();
    return;
  }
  JLOG(kInfo, "joshua") << node_.name() << ": replaying " << replay_queue_.size()
                        << " commands";
  replaying_ = true;
  replay_next();
}

void Server::replay_next() {
  if (replay_queue_.empty()) {
    replaying_ = false;
    auto held = std::move(held_commands_);
    held_commands_.clear();
    for (rsm::Command& cmd : held)
      if (on_ordered(cmd)) node_.resume(std::move(cmd));
    JLOG(kInfo, "joshua") << node_.name() << ": replay complete";
    return;
  }
  sim::Payload request = std::move(replay_queue_.front());
  replay_queue_.pop_front();
  uint64_t log_pos = log_command(request);  // nobody awaits a reply
  m_.replays_applied.add(1);
  node_.sim().telemetry().trace().instant(
      node_.sim().now().us, node_.host_id(), tc_replay_,
      m_.replays_applied.count(), replay_queue_.size());
  call_local_pbs(request, [this, log_pos, request](
                              std::optional<sim::Payload> response) {
    if (!response.has_value() || !replay_response_ok(request, *response)) {
      m_.replay_divergence.add(1);
      JLOG(kWarn, "joshua") << node_.name()
                            << ": replayed command produced a divergent response";
    }
    if (response.has_value()) note_command_result(log_pos, request, *response);
    replay_next();
  });
}

// ---------------------------------------------------------------------------
// jmutex / jdone
// ---------------------------------------------------------------------------

bool Server::mutex_winner(const MutexState& state, sim::HostId mom,
                          gcs::MemberId head) {
  if (state.done) return false;
  uint32_t rank = 0;
  for (const auto& claim : state.claims) {
    // A slot is won by one (mom, head) pair: the mom must rank within the
    // first max_real claimants AND this must be the head whose launch
    // attempt claimed for it -- the other heads' attempts emulate, which is
    // the paper's exactly-once start generalised to exactly-r.
    if (claim.first == mom) return rank < state.max_real && claim.second == head;
    ++rank;
  }
  return false;
}

bool Server::mutex_answerable(const MutexState& state, sim::HostId mom) {
  return state.done ||
         std::any_of(state.claims.begin(), state.claims.end(),
                     [mom](const auto& claim) { return claim.first == mom; });
}

void Server::handle_jmutex(const JMutexRequest& req,
                           const rsm::Caller& caller) {
  m_.mutex_requests.add(1);
  if (!node_.in_service()) return;  // no answer; the plugin rotates heads
  auto it = mutexes_.find(req.job);
  if (it != mutexes_.end() && mutex_answerable(it->second, req.mom)) {
    bool won = mutex_winner(it->second, req.mom, req.head);
    (won ? m_.mutex_grants : m_.mutex_denials).add(1);
    if (won) m_.jmutex_wait.record(0);  // arbitration already settled
    node_.reply(caller, net::encode(JMutexResponse{won}));
    return;
  }
  mutex_waiters_.emplace(
      req.job, MutexWaiter{req.head, req.mom, caller, node_.sim().now()});
  if (mutex_cast_.insert({req.job, req.mom}).second) {
    node_.order(
        net::encode(GroupMutexReq{req.job, req.head, req.mom, req.replicas}));
  }
}

void Server::handle_jdone(const JDoneRequest& req,
                          const rsm::Caller& caller) {
  // Completion is driven by the ordered MutexDone, so an ack without the
  // multicast would lose the job: stay silent when out of the group and let
  // the plugin rotate to a head that can actually order the release.
  if (!node_.in_service()) return;
  node_.reply(caller, sim::Payload{});
  node_.order(net::encode(
      GroupMutexDone{req.job, req.exit_code, node_.group().id(), req.mom}));
}

void Server::apply_mutex_req(const GroupMutexReq& req) {
  MutexState& state = mutexes_[req.job];
  // The first delivered claim fixes r for everyone; delivery order is the
  // same at every head, so every head pins the same value.
  if (state.claims.empty() && !state.done)
    state.max_real = std::max(1u, req.replicas);
  if (std::none_of(state.claims.begin(), state.claims.end(),
                   [&](const auto& claim) { return claim.first == req.mom; }))
    state.claims.emplace_back(req.mom, req.head);
  // A fresh claim means the mom is (back) in service: re-arm revocation,
  // and return the node to service in the local PBS. The up-transition
  // rides the ordered stream (mirroring note_node_failed in the revoke
  // apply), so every head's node table converges even with the heartbeat
  // detector disabled -- a head that never crashes would otherwise keep
  // the node down forever and stop scheduling onto it.
  revoked_moms_.erase(req.mom);
  local_pbs_.note_node_recovered(req.mom);
  answer_mutex_waiters(req.job);
}

void Server::apply_mutex_done(const GroupMutexDone& done) {
  MutexState& state = mutexes_[done.job];
  if (state.done) {
    // A losing replica that really ran (it won a slot) also sends jdone;
    // only the first one in total order decides the job.
    m_.dup_completions_suppressed.add(1);
    return;
  }
  state.done = true;
  state.exit_code = done.exit_code;
  state.winner_mom = done.mom;
  terminal_jobs_.insert(done.job);
  answer_mutex_waiters(done.job);
  // Ordered completion: apply the result to the local PBS here, at the same
  // point of the command stream on every head. The winner's own report then
  // only confirms (and survives the winner dying right after jdone).
  // The injection defers through the same exec_proc stage as ordered
  // commands (the core's apply stage): local-apply RPCs leave in delivery
  // order and loopback latency is fixed, so a completion delivered right
  // behind a command (routine once ack cuts coalesce) cannot overtake its
  // apply at the colocated PBS.
  m_.ordered_completions.add(1);
  node_.execute(config_.exec_proc, [this, done] {
    pbs::JobReport report;
    report.job_id = done.job;
    report.exit_code = done.exit_code;
    report.mom_host = done.mom;
    auto job = local_pbs_.find_job(done.job);
    report.cancelled = job.has_value() ? job->cancelled : false;
    call_local_pbs(net::encode(report), [](std::optional<sim::Payload>) {});
  });
}

void Server::apply_mutex_revoke(const GroupMutexRevoke& rev) {
  m_.mutex_revokes.add(1);
  revoked_moms_.insert(rev.mom);
  size_t released = 0;
  for (auto& entry : mutexes_) {
    MutexState& state = entry.second;
    if (!state.done && std::erase_if(state.claims, [&](const auto& claim) {
          return claim.first == rev.mom;
        }) != 0)
      ++released;
  }
  // Forget the dead mom's multicast dedup entries too, so a relaunched
  // replica's fresh claim actually goes out.
  std::erase_if(mutex_cast_, [&](const auto& e) { return e.second == rev.mom; });
  node_.sim().telemetry().trace().instant(
      node_.sim().now().us, node_.host_id(), tc_revoke_, rev.mom, released);
  JLOG(kInfo, "joshua") << node_.name() << ": revoked " << released
                        << " claim(s) of failed mom " << rev.mom;
  // Converge the local node table with the group's decision: mark the node
  // down, drop its replicas and requeue jobs left without one. Idempotent,
  // so the head whose detector triggered the revoke is unaffected.
  local_pbs_.note_node_failed(rev.mom);
}

void Server::apply_group_preempt(const GroupPreempt& pre) {
  // Scrub the victim's arbitration state before requeueing it: the quiet
  // kills erase the mom-side instances, so the relaunch must arbitrate from
  // scratch. Pending waiters are answered "lost" (their launch attempt is
  // moot -- the job is back in the queue); the dedup entries are dropped so
  // the relaunch's fresh claims actually go out.
  auto [begin, end] = mutex_waiters_.equal_range(pre.job);
  for (auto w = begin; w != end; ++w) {
    m_.mutex_denials.add(1);
    node_.reply(w->second.caller,
                net::encode(JMutexResponse{false}));
  }
  mutex_waiters_.erase(pre.job);
  mutexes_.erase(pre.job);
  std::erase_if(mutex_cast_, [&](const auto& e) { return e.first == pre.job; });
  m_.preempts_ordered.add(1);
  // Inject the requeue into the local PBS through the same exec_proc stage
  // as ordered commands, so it cannot overtake an in-flight apply.
  node_.execute(config_.exec_proc, [this, job = pre.job] {
    call_local_pbs(net::encode(pbs::PreemptRequest{job}),
                   [](std::optional<sim::Payload>) {});
  });
}

void Server::answer_mutex_waiters(pbs::JobId job) {
  auto it = mutexes_.find(job);
  if (it == mutexes_.end()) return;
  const MutexState& state = it->second;
  auto [begin, end] = mutex_waiters_.equal_range(job);
  for (auto w = begin; w != end;) {
    // A waiter is only answerable once its own claim is delivered (so its
    // rank among the first max_real is settled) or the job is done.
    if (!mutex_answerable(state, w->second.mom)) {
      ++w;
      continue;
    }
    bool won = mutex_winner(state, w->second.mom, w->second.head);
    (won ? m_.mutex_grants : m_.mutex_denials).add(1);
    if (won) m_.jmutex_wait.record((node_.sim().now() - w->second.asked).us);
    node_.reply(w->second.caller, net::encode(JMutexResponse{won}));
    w = mutex_waiters_.erase(w);
  }
}

bool Server::filter_report(const pbs::JobReport& report) {
  // Cancellations are ordered (jdel/qsig went through the group), so the
  // local cancelled flag is identical at every head: accept the matching
  // report directly.
  if (report.cancelled) {
    auto job = local_pbs_.find_job(report.job_id);
    if (job.has_value() && job->cancelled) return true;
  }
  auto it = mutexes_.find(report.job_id);
  if (it == mutexes_.end()) return true;  // never arbitrated (no prologue)
  const MutexState& state = it->second;
  if (!state.done) {
    // The winner is not decided yet; the ordered MutexDone will complete
    // the job when it is. Dropping the report is safe - completion no
    // longer depends on it.
    m_.reports_rejected.add(1);
    return false;
  }
  if (state.winner_mom == report.mom_host) return true;
  m_.reports_rejected.add(1);
  return false;
}

void Server::on_crash() {
  mutexes_.clear();
  mutex_waiters_.clear();
  mutex_cast_.clear();
  revoked_moms_.clear();
  command_log_.clear();
  terminal_jobs_.clear();
  max_job_id_seen_ = pbs::kInvalidJob;
  replaying_ = false;
  replay_queue_.clear();
  held_commands_.clear();
}

}  // namespace joshua
