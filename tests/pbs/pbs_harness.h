// Harness for PBS-level tests: one head running a server, M compute nodes
// running moms, a login node with clients. Plain TORQUE, no JOSHUA.
#pragma once

#include <memory>

#include "pbs/client.h"
#include "pbs/mom.h"
#include "pbs/server.h"
#include "sim/calibration.h"
#include "testutil.h"

namespace pbstest {

/// A fast-calibration server config with the JOSHUA_SCHED / JOSHUA_SELECT
/// sweep applied (testutil::env_options).
inline pbs::ServerConfig server_config() {
  pbs::ServerConfig cfg = pbs::server_config_from(sim::fast_calibration());
  cfg.sched = testutil::env_options().sched;
  return cfg;
}

class PbsHarness {
 public:
  explicit PbsHarness(int computes = 2, uint64_t seed = 1,
                      std::function<void(pbs::ServerConfig&)> tweak_server = nullptr,
                      std::function<void(pbs::MomConfig&)> tweak_mom = nullptr)
      : sim(seed), net(sim, sim::fast_calibration().network) {
    head = net.add_host("head").id();
    for (int i = 0; i < computes; ++i)
      compute.push_back(net.add_host("node" + std::to_string(i)).id());
    login = net.add_host("login").id();

    pbs::ServerConfig cfg = server_config();
    cfg.port = 15001;
    cfg.sched_interval = sim::msec(100);
    for (sim::HostId h : compute) cfg.moms.push_back({h, 15002});
    if (tweak_server) tweak_server(cfg);
    server = std::make_unique<pbs::Server>(net, head, cfg);

    for (sim::HostId h : compute) {
      pbs::MomConfig mcfg = pbs::mom_config_from(sim::fast_calibration());
      mcfg.port = 15002;
      mcfg.server_port = 15001;
      mcfg.report_retry = sim::msec(200);
      if (tweak_mom) tweak_mom(mcfg);
      moms.push_back(std::make_unique<pbs::Mom>(net, h, mcfg));
    }
  }

  pbs::Client& make_client() {
    pbs::ClientConfig cfg = pbs::client_config_from(
        sim::fast_calibration(), sim::Endpoint{head, 15001});
    clients.push_back(
        std::make_unique<pbs::Client>(net, login, next_port++, cfg));
    return *clients.back();
  }

  /// Submit synchronously-ish: returns the job id once the response lands.
  pbs::JobId submit(pbs::Client& client, pbs::JobSpec spec) {
    pbs::JobId id = pbs::kInvalidJob;
    bool done = false;
    client.qsub(std::move(spec), [&](std::optional<pbs::SubmitResponse> r) {
      done = true;
      if (r && r->status == pbs::Status::kOk) id = r->job_id;
    });
    testutil::run_until(sim, [&] { return done; });
    return id;
  }

  bool wait_state(pbs::JobId id, pbs::JobState state,
                  sim::Duration deadline = sim::seconds(60)) {
    return testutil::run_until(
        sim,
        [&] {
          auto job = server->find_job(id);
          return job.has_value() && job->state == state;
        },
        deadline);
  }

  pbs::JobSpec quick_job(sim::Duration run_time = sim::msec(500)) {
    pbs::JobSpec spec;
    spec.name = "t";
    spec.run_time = run_time;
    return spec;
  }

  sim::Simulation sim;
  sim::Network net;
  sim::HostId head;
  std::vector<sim::HostId> compute;
  sim::HostId login;
  std::unique_ptr<pbs::Server> server;
  std::vector<std::unique_ptr<pbs::Mom>> moms;
  std::vector<std::unique_ptr<pbs::Client>> clients;
  sim::Port next_port = 20000;
};

}  // namespace pbstest
