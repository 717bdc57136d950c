#include "joshua/mom_plugin.h"

#include "util/logging.h"

namespace joshua {

MomPlugin::MomPlugin(sim::Network& net, sim::HostId host,
                     MomPluginConfig config)
    : net::RpcNode(net, host, config.port,
                   "jplugin@" + net.host(host).name()),
      config_(std::move(config)) {
  if (config_.heads.empty())
    throw std::invalid_argument("MomPlugin: no heads configured");
}

void MomPlugin::attach(pbs::Mom& mom) {
  mom.set_prologue([this](const pbs::Job& job, sim::HostId head,
                          std::function<void(pbs::PrologueDecision)> done) {
    jmutex(job, head, std::move(done));
  });
  mom.set_epilogue([this](const pbs::Job& job, int32_t exit_code,
                          std::function<void()> done) {
    jdone(job, exit_code, std::move(done));
  });
}

size_t MomPlugin::head_index_of(sim::HostId host) const {
  for (size_t i = 0; i < config_.heads.size(); ++i) {
    if (config_.heads[i] == host) return i;
  }
  return 0;
}

void MomPlugin::jmutex(const pbs::Job& job, sim::HostId requesting_head,
                       std::function<void(pbs::PrologueDecision)> done) {
  ++mutex_attempts_;
  execute(config_.script_proc, [this, id = job.id, r = job.spec.replicas,
                                requesting_head,
                                done = std::move(done)]() mutable {
    // Ask the requesting head first -- it can multicast its own mutex
    // request; any other head can arbitrate by proxy if it is dead.
    jmutex_attempt(id, requesting_head, r, head_index_of(requesting_head),
                   config_.heads.size() + 1, std::move(done));
  });
}

void MomPlugin::jmutex_attempt(pbs::JobId job, sim::HostId on_behalf,
                               uint32_t replicas, size_t head_index,
                               size_t tries_left,
                               std::function<void(pbs::PrologueDecision)> done) {
  if (tries_left == 0) {
    ++aborts_;
    JLOG(kWarn, "jmutex") << name() << ": no head answered for job " << job
                          << "; aborting launch attempt";
    done(pbs::PrologueDecision::kAbort);
    return;
  }
  sim::Endpoint head{config_.heads[head_index % config_.heads.size()],
                     config_.joshua_port};
  net::CallOptions options;
  options.timeout = config_.rpc_timeout;
  call(head, net::encode(JMutexRequest{job, on_behalf, host_id(), replicas}),
       [this, job, on_behalf, replicas, head_index, tries_left,
        done = std::move(done)](std::optional<sim::Payload> resp) mutable {
         if (!resp.has_value()) {
           jmutex_attempt(job, on_behalf, replicas, head_index + 1,
                          tries_left - 1, std::move(done));
           return;
         }
         try {
           JMutexResponse r = net::decode<JMutexResponse>(*resp);
           if (r.won) {
             ++wins_;
             done(pbs::PrologueDecision::kRun);
           } else {
             ++emulations_;
             done(pbs::PrologueDecision::kEmulate);
           }
         } catch (const net::WireError&) {
           jmutex_attempt(job, on_behalf, replicas, head_index + 1,
                          tries_left - 1, std::move(done));
         }
       },
       options);
}

void MomPlugin::jdone(const pbs::Job& job, int32_t exit_code,
                      std::function<void()> done) {
  execute(config_.script_proc, [this, id = job.id, exit_code,
                                done = std::move(done)]() mutable {
    jdone_attempt(id, exit_code, 0, config_.heads.size() + 1, std::move(done));
  });
}

void MomPlugin::jdone_attempt(pbs::JobId job, int32_t exit_code,
                              size_t head_index, size_t tries_left,
                              std::function<void()> done) {
  if (tries_left == 0) {
    // No head ordered the release: the job would stay live at every head
    // (completion is applied from the ordered MutexDone). Keep trying until
    // the head group comes back; the reports wait, they only confirm.
    set_timer(config_.rpc_timeout, [this, job, exit_code,
                                    done = std::move(done)]() mutable {
      jdone_attempt(job, exit_code, 0, config_.heads.size() + 1,
                    std::move(done));
    });
    return;
  }
  sim::Endpoint head{config_.heads[head_index % config_.heads.size()],
                     config_.joshua_port};
  net::CallOptions options;
  options.timeout = config_.rpc_timeout;
  call(head, net::encode(JDoneRequest{job, exit_code, host_id()}),
       [this, job, exit_code, head_index, tries_left,
        done = std::move(done)](std::optional<sim::Payload> resp) mutable {
         if (!resp.has_value()) {
           jdone_attempt(job, exit_code, head_index + 1, tries_left - 1,
                         std::move(done));
           return;
         }
         done();
       },
       options);
}

}  // namespace joshua
