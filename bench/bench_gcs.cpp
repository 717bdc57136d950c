// Ablation E6: group-communication cost vs group size.
//
// Not a paper table -- it isolates the substrate that produces Figure 10's
// shape: totally ordered (AGREED) delivery latency grows with group size
// because the origin serializes ack processing.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <memory>

#include "gcs/group_member.h"
#include "sim/calibration.h"
#include "sim/failure.h"
#include "util/stats.h"

namespace {

struct GcsBench {
  explicit GcsBench(int n, uint64_t seed = 1)
      : sim(seed), net(sim, sim::paper_testbed().network) {
    for (int i = 0; i < n; ++i)
      hosts.push_back(net.add_host("h" + std::to_string(i)).id());
    delivered.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      gcs::GroupConfig cfg = gcs::group_config_from(sim::paper_testbed());
      cfg.port = 7000;
      cfg.peers = hosts;
      size_t idx = static_cast<size_t>(i);
      gcs::GroupCallbacks cb;
      cb.on_deliver = [this, idx](const gcs::Delivered&) {
        ++delivered[idx];
      };
      members.push_back(std::make_unique<gcs::GroupMember>(
          net, hosts[idx], cfg, cb));
    }
    for (auto& m : members) m->join();
    sim::Time limit = sim.now() + sim::seconds(30);
    while (sim.now() < limit && !converged()) sim.run_for(sim::msec(20));
  }

  bool converged() const {
    for (const auto& m : members)
      if (m->state() != gcs::GroupMember::State::kMember ||
          m->view().size() != members.size())
        return false;
    return true;
  }

  /// Latency from multicast to delivery at the ORIGIN (what a replicated
  /// state machine waits for before answering a client).
  double origin_latency_ms() {
    uint64_t target = delivered[0] + 1;
    sim::Time start = sim.now();
    members[0]->multicast({0x42});
    sim::Time limit = start + sim::seconds(30);
    while (sim.now() < limit && delivered[0] < target)
      sim.run_for(sim::usec(100));
    double ms = (sim.now() - start).millis();
    // Drain remote-side processing tails so samples do not pipeline.
    sim.run_for(sim::seconds(2));
    return ms;
  }

  sim::Simulation sim;
  sim::Network net;
  std::vector<sim::HostId> hosts;
  std::vector<std::unique_ptr<gcs::GroupMember>> members;
  std::vector<uint64_t> delivered;
};

void print_table() {
  std::printf(
      "\n==============================================================\n"
      "E6: AGREED multicast latency vs group size\n"
      "(origin-side delivery latency, paper-testbed calibration)\n"
      "==============================================================\n");
  std::printf("%-8s %10s\n", "members", "AGREED");
  for (int n = 1; n <= 6; ++n) {
    GcsBench bench(n);
    if (!bench.converged()) {
      std::printf("%-8d (no view)\n", n);
      continue;
    }
    jutil::Samples agreed;
    for (int i = 0; i < 8; ++i) agreed.add(bench.origin_latency_ms());
    std::printf("%-8d %8.1fms\n", n, agreed.mean());
  }
  std::printf("\nShape check: AGREED grows roughly linearly with one\n"
              "ack-processing step per extra head -- the mechanism behind\n"
              "Figure 10's per-head overhead.\n");
}

void BM_AgreedMulticast(benchmark::State& state) {
  GcsBench bench(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.SetIterationTime(bench.origin_latency_ms() / 1000.0);
  }
}
BENCHMARK(BM_AgreedMulticast)->DenseRange(1, 6)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_AgreedThroughput(benchmark::State& state) {
  // Messages delivered per simulated second under a saturating sender.
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GcsBench bench(n);
    const int burst = 50;
    sim::Time start = bench.sim.now();
    for (int i = 0; i < burst; ++i) bench.members[0]->multicast({0x1});
    sim::Time limit = start + sim::seconds(600);
    while (bench.sim.now() < limit && bench.delivered[0] < burst)
      bench.sim.run_for(sim::msec(1));
    state.SetIterationTime((bench.sim.now() - start).seconds());
    state.counters["msgs_per_s"] = benchmark::Counter(
        burst, benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_AgreedThroughput)->DenseRange(1, 4)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
