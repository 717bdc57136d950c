#include "pbs/mom.h"

#include "sim/calibration.h"
#include "util/logging.h"

namespace pbs {

MomConfig mom_config_from(const sim::Calibration& cal) {
  MomConfig cfg;
  cfg.launch_proc = cal.pbs_mom_launch;
  return cfg;
}

Mom::Mom(sim::Network& net, sim::HostId host, MomConfig config)
    : net::RpcNode(net, host, config.port, "pbs_mom@" + net.host(host).name()),
      config_(std::move(config)) {}

void Mom::on_request(sim::Payload request, sim::Endpoint from,
                     uint64_t rpc_id) {
  Op op;
  try {
    op = net::peek_tag<Op>(request);
  } catch (const net::WireError&) {
    return;
  }
  sim::Duration cost =
      op == Op::kMomPing ? config_.ping_proc : config_.launch_proc;
  execute(cost, [this, request = std::move(request), from, rpc_id, op] {
    try {
      switch (op) {
        case Op::kMomLaunch:
          handle_launch(net::decode<MomLaunchRequest>(request), from, rpc_id);
          break;
        case Op::kMomKill:
          handle_kill(net::decode<MomKillRequest>(request), from, rpc_id);
          break;
        case Op::kMomEmuComplete:
          handle_emu_complete(net::decode<MomEmuCompleteRequest>(request),
                              from, rpc_id);
          break;
        case Op::kMomPing:
          handle_ping(net::decode<MomPingRequest>(request), from, rpc_id);
          break;
        default:
          respond(from, rpc_id,
                  net::encode(SimpleResponse{Status::kUnsupported}));
      }
    } catch (const net::WireError& e) {
      JLOG(kWarn, "mom") << name() << ": bad request: " << e.what();
    }
  });
}

void Mom::handle_launch(MomLaunchRequest req, sim::Endpoint from,
                        uint64_t rpc_id) {
  JobId id = req.job.id;
  auto [it, inserted] = instances_.try_emplace(id);
  Instance& inst = it->second;
  if (inserted) inst.job = req.job;
  inst.requesters.insert(req.server_host);

  if (inst.state == InstanceState::kComplete) {
    // Late launch attempt for a finished job: emulate and report at once.
    ++launches_emulated_;
    respond(from, rpc_id,
            net::encode(MomLaunchResponse{Status::kOk, true}));
    report_to(req.server_host, inst, 0);
    return;
  }
  if (inst.state == InstanceState::kRunning) {
    // Attach: the requester gets its report when the instance completes.
    ++launches_emulated_;
    respond(from, rpc_id,
            net::encode(MomLaunchResponse{Status::kOk, true}));
    return;
  }

  // kStarting: first decision for this launch attempt. kEmulated: arbitrate
  // again -- a failover (mutex revoke) may have freed the launch slot this
  // instance lost earlier, in which case the prologue now says run.
  if (!prologue_) {
    respond(from, rpc_id,
            net::encode(MomLaunchResponse{Status::kOk, false}));
    if (inst.state != InstanceState::kRunning) start_job(inst);
    return;
  }
  run_prologue(id, req.server_host, from, rpc_id);
}

void Mom::run_prologue(JobId id, sim::HostId requester, sim::Endpoint from,
                       uint64_t rpc_id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  prologue_(it->second.job, requester,
            [this, id, requester, from, rpc_id](PrologueDecision decision) {
              auto it2 = instances_.find(id);
              if (it2 == instances_.end()) return;
              Instance& inst = it2->second;
              switch (decision) {
                case PrologueDecision::kRun:
                  respond(from, rpc_id,
                          net::encode(MomLaunchResponse{Status::kOk, false}));
                  if (inst.state == InstanceState::kStarting ||
                      inst.state == InstanceState::kEmulated) {
                    start_job(inst);
                  }
                  break;
                case PrologueDecision::kEmulate:
                  ++launches_emulated_;
                  respond(from, rpc_id,
                          net::encode(MomLaunchResponse{Status::kOk, true}));
                  if (inst.state == InstanceState::kStarting)
                    inst.state = InstanceState::kEmulated;
                  if (inst.state == InstanceState::kComplete)
                    report_to(requester, inst, 0);
                  break;
                case PrologueDecision::kAbort:
                  inst.requesters.erase(requester);
                  respond(from, rpc_id,
                          net::encode(
                              MomLaunchResponse{Status::kInternal, false}));
                  break;
              }
            });
}

void Mom::start_job(Instance& inst) {
  inst.state = InstanceState::kRunning;
  inst.real_run_here = true;
  inst.start_time = sim().now();
  ++jobs_executed_;
  ++real_run_log_[inst.job.id];
  JLOG(kDebug, "mom") << name() << ": job " << inst.job.id << " started ("
                      << inst.job.spec.run_time.millis() << " ms)";
  JobId id = inst.job.id;
  inst.run_timer = set_timer(inst.job.spec.run_time, [this, id] {
    finish_job(id, /*exit_code=*/0, /*cancelled=*/false);
  });
}

void Mom::finish_job(JobId id, int32_t exit_code, bool cancelled,
                     bool quiet) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (inst.state == InstanceState::kComplete) return;
  if (inst.run_timer != 0) {
    cancel_timer(inst.run_timer);
    inst.run_timer = 0;
  }
  if (quiet) {
    // Preemption kill: drop the instance without any completion report, and
    // without leaving a kComplete record that a relaunch of the requeued job
    // would attach to (the late-launch path would echo the stale report).
    JLOG(kDebug, "mom") << name() << ": job " << id << " preempted (quiet)";
    if (inst.real_run_here) ++quiet_kill_log_[id];
    instances_.erase(it);
    return;
  }
  bool ran_here = inst.real_run_here;
  inst.state = InstanceState::kComplete;
  inst.exit_code = exit_code;
  inst.cancelled = cancelled;
  inst.end_time = sim().now();
  JLOG(kDebug, "mom") << name() << ": job " << id << " finished (exit "
                      << exit_code << ")";
  auto fan_out = [this, id] {
    auto it2 = instances_.find(id);
    if (it2 == instances_.end()) return;
    for (sim::HostId server : it2->second.requesters)
      report_to(server, it2->second, 0);
  };
  if (epilogue_ && ran_here) {
    epilogue_(inst.job, exit_code, fan_out);
  } else {
    fan_out();
  }
}

void Mom::report_to(sim::HostId server, const Instance& inst, int attempt) {
  JobReport report;
  report.job_id = inst.job.id;
  report.exit_code = inst.exit_code;
  report.cancelled = inst.cancelled;
  report.start_time = inst.start_time;
  report.end_time = inst.end_time;
  report.mom_host = host_id();
  ++reports_sent_;
  JobId id = inst.job.id;
  net::CallOptions options;
  options.timeout = config_.report_retry;
  call(sim::Endpoint{server, config_.server_port}, net::encode(report),
       [this, server, id, attempt](std::optional<sim::Payload> resp) {
         if (resp.has_value()) return;  // acked
         // The head did not answer. With the quirk the mom keeps the report
         // pending until the head returns to service (the paper's observed
         // TORQUE behaviour); fixed behaviour gives up after a few tries.
         bool keep_trying = config_.quirk_hold_on_head_failure ||
                            attempt + 1 < config_.report_attempts;
         if (!keep_trying) {
           JLOG(kDebug, "mom") << name() << ": dropping report for job " << id
                               << " to dead head " << server;
           return;
         }
         auto it = instances_.find(id);
         if (it == instances_.end()) return;
         set_timer(config_.report_retry, [this, server, id, attempt] {
           auto it2 = instances_.find(id);
           if (it2 == instances_.end()) return;
           report_to(server, it2->second, attempt + 1);
         });
       },
       options);
}

void Mom::handle_kill(const MomKillRequest& req, sim::Endpoint from,
                      uint64_t rpc_id) {
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
  auto it = instances_.find(req.job_id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (inst.state == InstanceState::kRunning ||
      inst.state == InstanceState::kEmulated ||
      inst.state == InstanceState::kStarting) {
    // 256 + SIGTERM, the TORQUE convention for signal death.
    finish_job(req.job_id, 271, /*cancelled=*/true, req.quiet);
  } else if (inst.state == InstanceState::kComplete && req.quiet) {
    // Preempt raced with completion: still scrub the record so a relaunch
    // of the requeued job does not attach to the stale instance.
    if (inst.real_run_here) ++quiet_kill_log_[req.job_id];
    instances_.erase(it);
  }
}

void Mom::handle_ping(const MomPingRequest& req, sim::Endpoint from,
                      uint64_t rpc_id) {
  MomPingResponse resp;
  resp.seq = req.seq;
  for (const auto& [id, inst] : instances_) {
    (void)id;
    if (inst.state == InstanceState::kRunning) ++resp.running_jobs;
  }
  respond(from, rpc_id, net::encode(resp));
}

void Mom::handle_emu_complete(const MomEmuCompleteRequest& req,
                              sim::Endpoint from, uint64_t rpc_id) {
  respond(from, rpc_id, net::encode(SimpleResponse{Status::kOk}));
  auto it = instances_.find(req.job_id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (inst.state == InstanceState::kEmulated ||
      inst.state == InstanceState::kStarting) {
    finish_job(req.job_id, req.exit_code, /*cancelled=*/false);
  }
}

void Mom::on_crash() {
  net::RpcNode::on_crash();
  // Running jobs die with the node. real_run_log_ is deliberately kept: it
  // models the mom's on-disk job records, which is how campaigns verify the
  // exactly-r invariant across crashes.
  instances_.clear();
}

}  // namespace pbs
