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

template <typename Response, typename Decode>
void Client::run_command(sim::Payload request, Decode decode,
                         std::function<void(std::optional<Response>)> done) {
  execute(config_.cmd_startup, [this, request = std::move(request), decode,
                                done = std::move(done)]() mutable {
    this->request(std::move(request), [this, decode, done = std::move(done)](
                                          std::optional<sim::Payload> resp) {
      if (!resp.has_value()) {
        done(std::nullopt);  // no head answered
        return;
      }
      std::optional<Response> decoded;
      try {
        decoded = decode(*resp);
      } catch (const net::WireError&) {
        decoded = std::nullopt;
      }
      execute(config_.cmd_teardown,
              [done = std::move(done), decoded = std::move(decoded)] {
                done(decoded);
              });
    });
  });
}

void Client::jsub(pbs::JobSpec spec,
                  std::function<void(std::optional<pbs::SubmitResponse>)> done) {
  run_command<pbs::SubmitResponse>(
      pbs::encode_request(pbs::SubmitRequest{std::move(spec)}),
      &pbs::decode_submit_response, std::move(done));
}

void Client::jstat(pbs::StatRequest req,
                   std::function<void(std::optional<pbs::StatResponse>)> done) {
  run_command<pbs::StatResponse>(
      pbs::encode_request(req), &pbs::decode_stat_response, std::move(done));
}

void Client::jdel(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  run_command<pbs::SimpleResponse>(
      pbs::encode_request(pbs::DeleteRequest{id}),
      &pbs::decode_simple_response, std::move(done));
}

void Client::jhold(pbs::JobId id,
                   std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  run_command<pbs::SimpleResponse>(
      pbs::encode_request(pbs::HoldRequest{id}),
      &pbs::decode_simple_response, std::move(done));
}

void Client::jrls(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  run_command<pbs::SimpleResponse>(
      pbs::encode_request(pbs::ReleaseRequest{id}),
      &pbs::decode_simple_response, std::move(done));
}

}  // namespace joshua
