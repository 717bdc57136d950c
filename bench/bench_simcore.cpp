// Event-core microbenchmarks: the wall-clock cost of the simulator's hot
// path (schedule/step/cancel), the messaging fan-out path (one broadcast
// payload delivered to N hosts) and the receive path behind it (each
// delivery charged to the receiving host's CPU queue, then handled).
//
// Unlike the paper-reproduction benches, these measure REAL time: the
// simulator is the hardware ceiling for every reproduced figure, so its
// events/sec and allocations/event are tracked as first-class numbers in
// BENCH_simcore.json (written next to the working directory on every run).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/simulation.h"

// -- allocation counter -------------------------------------------------------
//
// Global operator new/delete overrides count every heap allocation in the
// process; benchmarks snapshot the counter around their measurement loop to
// report allocations per event. The steady-state schedule/step loop and the
// fan-out -> Host::execute -> handler loop are required to be
// allocation-free (asserted in main()).

static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// Written by the steady-state benchmark, checked in main(): allocations per
// event in the schedule+step loop after the pool has warmed up.
double g_steady_state_allocs_per_event = -1.0;
double g_steady_state_events_per_sec = 0.0;
double g_fanout_events_per_sec = 0.0;
// The same for the fan-out -> Host::execute -> handler loop, per delivery.
double g_execute_allocs_per_delivery = -1.0;
double g_execute_deliveries_per_sec = 0.0;

// -- schedule + step ----------------------------------------------------------

/// Steady-state throughput: every iteration schedules one small callback and
/// executes one event, so the pending set stays at a constant depth (the
/// pool neither grows nor drains).
void BM_ScheduleStep(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  sim::Simulation s;
  uint64_t sink = 0;
  for (int i = 0; i < depth; ++i)
    s.schedule(sim::usec(i % 97 + 1), [&sink] { ++sink; });
  // Warm up so every slab/heap growth has already happened.
  for (int i = 0; i < 4096; ++i) {
    s.schedule(sim::usec(i % 97 + 1), [&sink] { ++sink; });
    s.step();
  }
  uint64_t alloc_before = allocs();
  for (auto _ : state) {
    s.schedule(sim::usec(1), [&sink] { ++sink; });
    s.step();
  }
  uint64_t alloc_after = allocs();
  benchmark::DoNotOptimize(sink);
  auto iters = static_cast<double>(state.iterations());
  state.counters["events/s"] =
      benchmark::Counter(iters, benchmark::Counter::kIsRate);
  state.counters["allocs/event"] =
      static_cast<double>(alloc_after - alloc_before) / iters;
  if (depth == 1024) {
    g_steady_state_allocs_per_event =
        static_cast<double>(alloc_after - alloc_before) / iters;
  }
}
BENCHMARK(BM_ScheduleStep)->Arg(16)->Arg(1024)->Arg(65536);

/// Drain throughput: fill the queue, then pop it dry. Exercises heap
/// rebalancing across a shrinking heap.
void BM_BurstDrain(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    for (int i = 0; i < burst; ++i)
      s.schedule(sim::usec((i * 7919) % 10007), [&sink] { ++sink; });
    state.ResumeTiming();
    while (s.step()) {
    }
  }
  benchmark::DoNotOptimize(sink);
  auto events = static_cast<double>(state.iterations()) * burst;
  state.counters["events/s"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BurstDrain)->Arg(4096)->Arg(262144);

// -- schedule + cancel --------------------------------------------------------

/// Timer-churn pattern: most scheduled events are cancelled before firing
/// (retransmit timers on a healthy network). Lazy cancellation must make the
/// cancel itself O(1) and keep the cancelled corpses from slowing step().
void BM_ScheduleCancelStep(benchmark::State& state) {
  sim::Simulation s;
  uint64_t sink = 0;
  for (int i = 0; i < 4096; ++i) {
    sim::EventId id = s.schedule(sim::usec(50), [&sink] { ++sink; });
    s.schedule(sim::usec(i % 97 + 1), [&sink] { ++sink; });
    s.cancel(id);
    s.step();
  }
  uint64_t alloc_before = allocs();
  for (auto _ : state) {
    sim::EventId id = s.schedule(sim::usec(50), [&sink] { ++sink; });
    s.schedule(sim::usec(1), [&sink] { ++sink; });
    s.cancel(id);
    s.step();
  }
  uint64_t alloc_after = allocs();
  benchmark::DoNotOptimize(sink);
  auto iters = static_cast<double>(state.iterations());
  state.counters["events/s"] =
      benchmark::Counter(iters, benchmark::Counter::kIsRate);
  state.counters["allocs/event"] =
      static_cast<double>(alloc_after - alloc_before) / iters;
}
BENCHMARK(BM_ScheduleCancelStep);

// -- broadcast fan-out --------------------------------------------------------

/// One multicast payload delivered to N hosts. This is the GCS broadcast
/// substrate: a data message fans out to every head node, so per-receiver
/// payload handling cost multiplies across the group.
class Sink : public sim::IPacketHandler {
 public:
  void handle_packet(sim::Packet packet) override {
    bytes_ += packet.data.size();
  }
  uint64_t bytes_ = 0;
};

/// A receiver shaped like gcs::GroupMember: every packet is charged to the
/// host's CPU queue with a closure that carries the payload and its sender,
/// and handled when the CPU gets to it.
class CpuSink : public sim::IPacketHandler {
 public:
  explicit CpuSink(sim::Host& host) : host_(host) {}
  void handle_packet(sim::Packet packet) override {
    const uint8_t tag = packet.data[0];
    host_.execute(sim::usec(20), [this, data = std::move(packet.data),
                                  src = packet.src, tag] {
      bytes_ += data.size() + src.port + tag;
    });
  }
  uint64_t bytes_ = 0;

 private:
  sim::Host& host_;
};

void BM_BroadcastFanout(benchmark::State& state) {
  const int heads = static_cast<int>(state.range(0));
  const size_t payload_size = static_cast<size_t>(state.range(1));
  sim::Simulation s;
  sim::NetworkConfig cfg;
  cfg.jitter = sim::usec(0);  // deterministic, no rng in the hot loop
  sim::Network net(s, cfg);
  std::vector<Sink> sinks(static_cast<size_t>(heads));
  std::vector<sim::HostId> dsts;
  for (int i = 0; i < heads; ++i) {
    sim::Host& h = net.add_host("head" + std::to_string(i));
    h.bind(1, &sinks[static_cast<size_t>(i)]);
    dsts.push_back(h.id());
  }
  sim::Payload payload(payload_size, uint8_t{0xab});
  sim::Endpoint src{dsts[0], 2};
  uint64_t delivered = 0;
  for (auto _ : state) {
    net.multicast(src, 1, payload, dsts);
    while (s.step()) ++delivered;
  }
  benchmark::DoNotOptimize(delivered);
  auto events = static_cast<double>(state.iterations()) * heads;
  state.counters["deliveries/s"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["payload_bytes"] = static_cast<double>(payload_size);
}
BENCHMARK(BM_BroadcastFanout)
    ->Args({4, 4096})
    ->Args({16, 4096})
    ->Args({16, 65536});

// -- focused wall-clock runs for BENCH_simcore.json ---------------------------

/// Direct timed loops (independent of google-benchmark's iteration logic) so
/// the JSON trajectory numbers are simple and comparable across PRs.
void measure_for_json() {
  using clock = std::chrono::steady_clock;
  {
    sim::Simulation s;
    uint64_t sink = 0;
    for (int i = 0; i < 1024; ++i)
      s.schedule(sim::usec(i % 97 + 1), [&sink] { ++sink; });
    for (int i = 0; i < 4096; ++i) {
      s.schedule(sim::usec(i % 97 + 1), [&sink] { ++sink; });
      s.step();
    }
    constexpr int kEvents = 2'000'000;
    uint64_t alloc_before = allocs();
    auto t0 = clock::now();
    for (int i = 0; i < kEvents; ++i) {
      s.schedule(sim::usec(1), [&sink] { ++sink; });
      s.step();
    }
    auto t1 = clock::now();
    uint64_t alloc_after = allocs();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    g_steady_state_events_per_sec = kEvents / secs;
    g_steady_state_allocs_per_event =
        static_cast<double>(alloc_after - alloc_before) / kEvents;
    benchmark::DoNotOptimize(sink);
  }
  {
    constexpr int kHeads = 16;
    constexpr size_t kPayload = 4096;
    constexpr int kRounds = 20000;
    sim::Simulation s;
    sim::NetworkConfig cfg;
    cfg.jitter = sim::usec(0);
    sim::Network net(s, cfg);
    std::vector<Sink> sinks(kHeads);
    std::vector<sim::HostId> dsts;
    for (int i = 0; i < kHeads; ++i) {
      sim::Host& h = net.add_host("head" + std::to_string(i));
      h.bind(1, &sinks[static_cast<size_t>(i)]);
      dsts.push_back(h.id());
    }
    sim::Payload payload(kPayload, uint8_t{0xab});
    sim::Endpoint src{dsts[0], 2};
    auto t0 = clock::now();
    for (int i = 0; i < kRounds; ++i) {
      net.multicast(src, 1, payload, dsts);
      while (s.step()) {
      }
    }
    auto t1 = clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    g_fanout_events_per_sec = static_cast<double>(kRounds) * kHeads / secs;
  }
  {
    // 64 receivers, each queueing several deliveries on its CPU at once.
    constexpr int kHeads = 64;
    constexpr int kBurst = 4;
    constexpr int kRounds = 5000;
    sim::Simulation s;
    sim::NetworkConfig cfg;
    cfg.jitter = sim::usec(0);
    sim::Network net(s, cfg);
    std::vector<std::unique_ptr<CpuSink>> sinks;
    std::vector<sim::HostId> dsts;
    for (int i = 0; i < kHeads; ++i) {
      sim::Host& h = net.add_host("head" + std::to_string(i));
      sinks.push_back(std::make_unique<CpuSink>(h));
      h.bind(1, sinks.back().get());
      dsts.push_back(h.id());
    }
    sim::Payload payload(256, uint8_t{0xab});
    sim::Endpoint src{dsts[0], 2};
    auto round = [&] {
      for (int b = 0; b < kBurst; ++b) net.multicast(src, 1, payload, dsts);
      while (s.step()) {
      }
    };
    for (int i = 0; i < 64; ++i) round();  // warm-up: pool, heap and rings
    uint64_t alloc_before = allocs();
    auto t0 = clock::now();
    for (int i = 0; i < kRounds; ++i) round();
    auto t1 = clock::now();
    uint64_t alloc_after = allocs();
    const double deliveries =
        static_cast<double>(kRounds) * kBurst * kHeads;
    double secs = std::chrono::duration<double>(t1 - t0).count();
    g_execute_deliveries_per_sec = deliveries / secs;
    g_execute_allocs_per_delivery =
        static_cast<double>(alloc_after - alloc_before) / deliveries;
  }
}

void write_json() {
  std::ofstream out("BENCH_simcore.json");
  if (!out) {
    std::fprintf(stderr,
                 "warning: cannot write BENCH_simcore.json in the current "
                 "directory; results printed above only\n");
    return;
  }
  out << "{\n"
      << "  \"schedule_step_events_per_sec\": " << g_steady_state_events_per_sec
      << ",\n"
      << "  \"schedule_step_allocs_per_event\": "
      << g_steady_state_allocs_per_event << ",\n"
      << "  \"broadcast_fanout_deliveries_per_sec\": "
      << g_fanout_events_per_sec << ",\n"
      << "  \"fanout_execute_deliveries_per_sec\": "
      << g_execute_deliveries_per_sec << ",\n"
      << "  \"fanout_execute_allocs_per_delivery\": "
      << g_execute_allocs_per_delivery << "\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  measure_for_json();
  write_json();
  std::printf("\nsteady-state schedule+step: %.0f events/s, %.4f allocs/event\n",
              g_steady_state_events_per_sec, g_steady_state_allocs_per_event);
  std::printf("broadcast fan-out (16 heads, 4 KiB): %.0f deliveries/s\n",
              g_fanout_events_per_sec);
  std::printf("fan-out -> execute -> handler (64 heads): %.0f deliveries/s, "
              "%.4f allocs/delivery\n",
              g_execute_deliveries_per_sec, g_execute_allocs_per_delivery);
  int status = 0;
  if (g_steady_state_allocs_per_event != 0.0) {
    std::printf("FAIL: steady-state schedule+step must be allocation-free\n");
    status = 1;
  }
  if (g_execute_allocs_per_delivery != 0.0) {
    std::printf("FAIL: fan-out -> execute -> handler must be "
                "allocation-free\n");
    status = 1;
  }
  return status;
}
