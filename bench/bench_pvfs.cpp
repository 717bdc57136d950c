// Extension E8: symmetric active/active PVFS metadata server -- the
// service the paper names as the next target for the same model. The
// latency shape must mirror Figure 10: flat for unreplicated, a big jump
// to 2 replicas (off-node ordering), then roughly linear per extra
// replica; read-local reads stay flat at any replica count.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "pvfs/metadata.h"
#include "rsm/replicated_service.h"
#include "sim/calibration.h"
#include "util/stats.h"

namespace {

struct PvfsBench {
  PvfsBench(int n, bool read_local, uint64_t seed = 1)
      : sim(seed), net(sim, sim::paper_testbed().network) {
    for (int i = 0; i < n; ++i)
      hosts.push_back(net.add_host("md" + std::to_string(i)).id());
    login = net.add_host("login").id();
    for (int i = 0; i < n; ++i) {
      services.push_back(std::make_unique<pvfs::MetadataServer>());
      rsm::ReplicaConfig cfg;
      cfg.group = gcs::group_config_from(sim::paper_testbed());
      cfg.group.port = 7100;
      cfg.group.peers = hosts;
      cfg.read_local = read_local;
      replicas.push_back(std::make_unique<rsm::ReplicaNode>(
          net, hosts[static_cast<size_t>(i)], cfg, services.back().get()));
      replicas.back()->start();
    }
    rsm::ReplicaClient::Config ccfg;
    for (sim::HostId h : hosts) ccfg.replicas.push_back({h, 19000});
    client = std::make_unique<rsm::ReplicaClient>(net, login, 20000, ccfg);
    spin([&] {
      for (auto& r : replicas)
        if (!r->in_service() ||
            r->group().view().size() != static_cast<size_t>(n))
          return false;
      return true;
    });
  }

  void spin(const std::function<bool()>& pred) {
    sim::Time limit = sim.now() + sim::seconds(60);
    while (sim.now() < limit && !pred()) sim.run_for(sim::usec(200));
  }

  double op_latency_ms(pvfs::MdRequest req) {
    bool done = false;
    sim::Time start = sim.now();
    client->request(net::encode(req),
                    [&](std::optional<sim::Payload>) { done = true; });
    spin([&] { return done; });
    double ms = (sim.now() - start).millis();
    // Drain replica-side processing tails between samples.
    sim.run_for(sim::seconds(1));
    return ms;
  }

  pvfs::MdRequest create_req(int i) {
    pvfs::MdRequest req;
    req.op = pvfs::MdOp::kCreate;
    req.dir = pvfs::kRootHandle;
    req.name = "f" + std::to_string(i);
    return req;
  }
  pvfs::MdRequest lookup_req(int i) {
    pvfs::MdRequest req;
    req.op = pvfs::MdOp::kLookup;
    req.dir = pvfs::kRootHandle;
    req.name = "f" + std::to_string(i);
    return req;
  }

  sim::Simulation sim;
  sim::Network net;
  std::vector<sim::HostId> hosts;
  sim::HostId login;
  std::vector<std::unique_ptr<pvfs::MetadataServer>> services;
  std::vector<std::unique_ptr<rsm::ReplicaNode>> replicas;
  std::unique_ptr<rsm::ReplicaClient> client;
};

void print_table() {
  std::printf(
      "\n==============================================================\n"
      "E8: Active/active PVFS metadata server (paper generality claim)\n"
      "==============================================================\n");
  std::printf("%-10s %14s %14s %16s\n", "replicas", "create (write)",
              "lookup (ord.)", "lookup (local)");
  for (int n = 1; n <= 4; ++n) {
    PvfsBench ordered(n, /*read_local=*/false);
    jutil::Samples creates, lookups;
    for (int i = 0; i < 8; ++i) {
      creates.add(ordered.op_latency_ms(ordered.create_req(i)));
      lookups.add(ordered.op_latency_ms(ordered.lookup_req(i)));
    }
    PvfsBench local(n, /*read_local=*/true);
    jutil::Samples local_lookups;
    for (int i = 0; i < 8; ++i) {
      local.op_latency_ms(local.create_req(i));
      local_lookups.add(local.op_latency_ms(local.lookup_req(i)));
    }
    std::printf("%-10d %11.0f ms %11.0f ms %13.0f ms\n", n, creates.mean(),
                lookups.mean(), local_lookups.mean());
  }
  std::printf(
      "\nShape checks: writes mirror Figure 10 (flat -> jump at 2 -> ~linear);\n"
      "read-local lookups stay flat -- the consistency/latency trade the\n"
      "ordered mode avoids.\n");
}

void BM_PvfsCreate(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  PvfsBench bench(n, false);
  int i = 0;
  for (auto _ : state) {
    state.SetIterationTime(bench.op_latency_ms(bench.create_req(i++)) / 1e3);
  }
}
BENCHMARK(BM_PvfsCreate)->DenseRange(1, 4)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
