// PBS user commands (qsub/qstat/qdel/qsig/qhold/qrls) as a client process.
//
// Each command models the cost of spawning the CLI tool (fork/exec +
// connect) and of printing the result, so measured latencies are end-to-end
// the way the paper measured them at the shell.
#pragma once

#include <functional>
#include <optional>

#include "net/rpc.h"
#include "pbs/protocol.h"

namespace sim {
struct Calibration;
}

namespace pbs {

struct ClientConfig {
  sim::Endpoint server;
  sim::Duration cmd_startup = sim::msec(14);
  sim::Duration cmd_teardown = sim::msec(4);
  sim::Duration timeout = sim::seconds(10);
  int attempts = 1;
};

ClientConfig client_config_from(const sim::Calibration& cal,
                                sim::Endpoint server);

class Client : public net::RpcNode {
 public:
  Client(sim::Network& net, sim::HostId host, sim::Port port,
         ClientConfig config);

  /// Retarget subsequent commands (failover to another head).
  void set_server(sim::Endpoint server) { config_.server = server; }
  void set_timeout(sim::Duration timeout) { config_.timeout = timeout; }
  const ClientConfig& config() const { return config_; }

  // Callbacks receive std::nullopt on timeout.
  void qsub(JobSpec spec,
            std::function<void(std::optional<SubmitResponse>)> done);
  void qstat(StatRequest req,
             std::function<void(std::optional<StatResponse>)> done);
  void qdel(JobId id, std::function<void(std::optional<SimpleResponse>)> done);
  void qsig(JobId id, int32_t signal,
            std::function<void(std::optional<SimpleResponse>)> done);
  void qhold(JobId id, std::function<void(std::optional<SimpleResponse>)> done);
  void qrls(JobId id, std::function<void(std::optional<SimpleResponse>)> done);

  // State management helpers (active/standby harness, snapshot transfer).
  void dump_state(std::function<void(std::optional<DumpStateResponse>)> done);
  void load_state(sim::Payload state,
                  std::function<void(std::optional<SimpleResponse>)> done);

 protected:
  void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}

 private:
  template <typename Response>
  void run_command(sim::Payload request,
                   std::function<void(std::optional<Response>)> done);

  ClientConfig config_;
};

}  // namespace pbs
