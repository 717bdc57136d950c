#include "joshua/client.h"

#include "sim/calibration.h"

namespace joshua {

ClientConfig joshua_client_config_from(const sim::Calibration& cal,
                                       std::vector<sim::Endpoint> heads) {
  ClientConfig cfg;
  cfg.heads = std::move(heads);
  cfg.cmd_startup = cal.cmd_startup;
  cfg.cmd_teardown = cal.cmd_teardown;
  return cfg;
}

Client::Client(sim::Network& net, sim::HostId host, sim::Port port,
               ClientConfig config)
    : rsm::ReplicaClient(net, host, port, {config.heads, config.timeout}),
      config_(std::move(config)) {}

template <typename Response>
void Client::run_command(sim::Payload request,
                         std::function<void(std::optional<Response>)> done) {
  execute(config_.cmd_startup, [this, request = std::move(request),
                                done = std::move(done)]() mutable {
    this->request(std::move(request), [this, done = std::move(done)](
                                          std::optional<sim::Payload> resp) {
      if (!resp.has_value()) {
        done(std::nullopt);  // no head answered
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
    });
  });
}

void Client::jsub(pbs::JobSpec spec,
                  std::function<void(std::optional<pbs::SubmitResponse>)> done) {
  run_command<pbs::SubmitResponse>(
      net::encode(pbs::SubmitRequest{std::move(spec)}), std::move(done));
}

void Client::jstat(pbs::StatRequest req,
                   std::function<void(std::optional<pbs::StatResponse>)> done) {
  run_command<pbs::StatResponse>(net::encode(req), std::move(done));
}

void Client::jdel(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  run_command<pbs::SimpleResponse>(net::encode(pbs::DeleteRequest{id}),
                                   std::move(done));
}

void Client::jhold(pbs::JobId id,
                   std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  run_command<pbs::SimpleResponse>(net::encode(pbs::HoldRequest{id}),
                                   std::move(done));
}

void Client::jrls(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  run_command<pbs::SimpleResponse>(net::encode(pbs::ReleaseRequest{id}),
                                   std::move(done));
}

}  // namespace joshua
