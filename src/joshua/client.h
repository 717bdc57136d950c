// JOSHUA control commands: jsub, jstat, jdel (+ jhold/jrls in snapshot
// transfer mode).
//
// "The JOSHUA control commands may be invoked on any of the active head
// nodes or from a separate login node as they contact the JOSHUA server
// group via the network" (Section 4). The client therefore holds the whole
// head list and fails over to the next head when one does not answer --
// this is what makes the service continuously available to users across
// head-node failures. Aliasing qsub=jsub gives 100% PBS interface
// compliance, which these wrappers mirror by speaking the PBS wire ops.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "pbs/protocol.h"
#include "rsm/replicated_service.h"

namespace sim {
struct Calibration;
}

namespace joshua {

struct ClientConfig {
  std::vector<sim::Endpoint> heads;  ///< joshua servers, any order
  sim::Duration cmd_startup = sim::msec(14);
  sim::Duration cmd_teardown = sim::msec(4);
  /// Per-head timeout; total worst case = timeout * heads.
  sim::Duration timeout = sim::seconds(8);
};

ClientConfig joshua_client_config_from(const sim::Calibration& cal,
                                       std::vector<sim::Endpoint> heads);

/// The typed PBS commands on the shared replica failover loop
/// (rsm::ReplicaClient): a head that does not answer is skipped for the
/// next one.
class Client : public rsm::ReplicaClient {
 public:
  Client(sim::Network& net, sim::HostId host, sim::Port port,
         ClientConfig config);

  /// Index of the head the last successful command used.
  size_t current_head() const { return current(); }

  void jsub(pbs::JobSpec spec,
            std::function<void(std::optional<pbs::SubmitResponse>)> done);
  void jstat(pbs::StatRequest req,
             std::function<void(std::optional<pbs::StatResponse>)> done);
  void jdel(pbs::JobId id,
            std::function<void(std::optional<pbs::SimpleResponse>)> done);
  void jhold(pbs::JobId id,
             std::function<void(std::optional<pbs::SimpleResponse>)> done);
  void jrls(pbs::JobId id,
            std::function<void(std::optional<pbs::SimpleResponse>)> done);

 private:
  /// Command startup, the failover loop, decode, command teardown.
  template <typename Response>
  void run_command(sim::Payload request,
                   std::function<void(std::optional<Response>)> done);

  ClientConfig config_;
};

}  // namespace joshua
