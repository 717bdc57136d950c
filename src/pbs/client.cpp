#include "pbs/client.h"

#include "sim/calibration.h"

namespace pbs {

ClientConfig client_config_from(const sim::Calibration& cal,
                                sim::Endpoint server) {
  ClientConfig cfg;
  cfg.server = server;
  cfg.cmd_startup = cal.cmd_startup;
  cfg.cmd_teardown = cal.cmd_teardown;
  return cfg;
}

Client::Client(sim::Network& net, sim::HostId host, sim::Port port,
               ClientConfig config)
    : net::RpcNode(net, host, port, "pbs_client@" + net.host(host).name()),
      config_(std::move(config)) {}

template <typename Response>
void Client::run_command(sim::Payload request,
                         std::function<void(std::optional<Response>)> done) {
  execute(config_.cmd_startup, [this, request = std::move(request),
                                done = std::move(done)]() mutable {
    net::CallOptions options;
    options.timeout = config_.timeout;
    options.attempts = config_.attempts;
    call(config_.server, std::move(request),
         [this, done = std::move(done)](
             std::optional<sim::Payload> resp) mutable {
           if (!resp.has_value()) {
             done(std::nullopt);
             return;
           }
           std::optional<Response> decoded;
           try {
             decoded = net::decode<Response>(*resp);
           } catch (const net::WireError&) {
             decoded = std::nullopt;
           }
           execute(config_.cmd_teardown,
                   [done = std::move(done),
                    decoded = std::move(decoded)]() mutable {
                     done(std::move(decoded));
                   });
         },
         options);
  });
}

void Client::qsub(JobSpec spec,
                  std::function<void(std::optional<SubmitResponse>)> done) {
  run_command<SubmitResponse>(net::encode(SubmitRequest{std::move(spec)}),
                              std::move(done));
}

void Client::qstat(StatRequest req,
                   std::function<void(std::optional<StatResponse>)> done) {
  run_command<StatResponse>(net::encode(req), std::move(done));
}

void Client::qdel(JobId id,
                  std::function<void(std::optional<SimpleResponse>)> done) {
  run_command<SimpleResponse>(net::encode(DeleteRequest{id}), std::move(done));
}

void Client::qsig(JobId id, int32_t signal,
                  std::function<void(std::optional<SimpleResponse>)> done) {
  run_command<SimpleResponse>(net::encode(SignalRequest{id, signal}),
                              std::move(done));
}

void Client::qhold(JobId id,
                   std::function<void(std::optional<SimpleResponse>)> done) {
  run_command<SimpleResponse>(net::encode(HoldRequest{id}), std::move(done));
}

void Client::qrls(JobId id,
                  std::function<void(std::optional<SimpleResponse>)> done) {
  run_command<SimpleResponse>(net::encode(ReleaseRequest{id}), std::move(done));
}

void Client::dump_state(
    std::function<void(std::optional<DumpStateResponse>)> done) {
  run_command<DumpStateResponse>(net::encode(DumpStateRequest{}),
                                 std::move(done));
}

void Client::load_state(
    sim::Payload state,
    std::function<void(std::optional<SimpleResponse>)> done) {
  run_command<SimpleResponse>(net::encode(LoadStateRequest{std::move(state)}),
                              std::move(done));
}

}  // namespace pbs
