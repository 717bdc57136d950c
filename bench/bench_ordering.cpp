// E10: ordering-engine head-count sweep -- where the token ring overtakes
// the paper's all-ack protocol -- plus E13: the batched/pipelined hot path.
//
// Part A (E10, unchanged keys): the paper's testbed stops at 4 head nodes;
// Figure 10's latency growth is driven by the all-ack engine's O(N)
// acknowledgement cuts per message, each of which every member must
// process. This sweep runs identical sustained traffic through both engines
// at N in {4, 16, 64, 128} and records the ordering latency and the
// control-message cost per ordered message. Expectation (asserted, and
// gated by baselines/bench_ordering.json): the token ring is strictly
// cheaper on both axes from N = 64 up.
//
// Part B (E13): the batching knobs must be free when off and pay when on.
//   * Parity: batch=1/window=1 at N=4 must match the legacy run's ordering
//     latency for both engines (keys parity.<engine>.n4.*, gated
//     lower_is_better like every other latency key).
//   * Closed-loop throughput: senders preload a fixed backlog and the
//     flow-control window pipelines it; ordered commands/s is recorded per
//     (engine, batch, window) and the token ring at N=128 must clear a 5x
//     speedup at batch=64/window=16 over batch=1/window=1 (asserted, and
//     the speedup key is gated higher_is_better).
//
//   $ ./bench/bench_ordering            # table + BENCH_ordering.json
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gcs/group_member.h"
#include "sim/calibration.h"
#include "telemetry/scenario_report.h"

namespace {

constexpr int kHeadCounts[] = {4, 16, 64, 128};
/// Total ordered messages per run: identical offered load at every sweep
/// point, so within-N engine comparisons and across-N curves both hold.
constexpr int kTotalMsgs = 128;
/// Concurrent submitters per round. An HPC site's command front-ends, not
/// every head, inject jobs simultaneously; capping the burst keeps offered
/// load constant across N while the per-head ordering cost (ack cuts,
/// token rotation) still scales with the full membership.
constexpr int kMaxSenders = 32;
/// Inter-round gap; small enough that the all-ack engine's per-message
/// O(N^2) ack processing saturates the heads at large N (the regime the
/// paper never reached).
constexpr sim::Duration kRoundGap = sim::msec(20);

/// Closed-loop load (Part B): each sender preloads this backlog in one call
/// burst; the sender window paces it onto the wire.
constexpr int kTputSenders = 8;
constexpr int kTputPerSender = 32;

/// An N-member group on a fresh simulation, ready to converge. The config
/// must stay byte-identical to the PR 6 bench when batch/window are 0 so
/// the legacy baseline keys keep reproducing exactly.
struct Rig {
  sim::Simulation sim{1};
  sim::Network net;
  std::vector<sim::HostId> hosts;
  std::vector<uint64_t> delivered;
  std::vector<std::unique_ptr<gcs::GroupMember>> members;

  Rig(gcs::OrderingMode mode, int n, uint32_t batch, uint32_t window)
      : net(sim, sim::fast_calibration().network) {
    for (int i = 0; i < n; ++i)
      hosts.push_back(net.add_host("h" + std::to_string(i)).id());
    delivered.assign(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      gcs::GroupConfig cfg = gcs::group_config_from(sim::fast_calibration());
      cfg.port = 7000;
      cfg.peers = hosts;
      cfg.ordering = mode;
      cfg.order_batch = batch;
      cfg.inflight_window = window;
      // The paper-era defaults model a 2001 head node (1 ms per heartbeat,
      // 2 ms per control packet); at N = 128 that alone is 127 ms of CPU per
      // 100 ms heartbeat interval and no engine can converge. Model modern
      // heads so the sweep isolates the ENGINES' asymptotics, not the
      // heartbeat floor.
      cfg.hb_proc = sim::usec(20);
      cfg.ctrl_proc = sim::usec(50);
      // Relax the failure detector: at N = 128 the all-ack backlog delays
      // heartbeats past the default 500 ms suspect timeout and the sweep
      // would measure view churn instead of steady-state ordering.
      cfg.suspect_timeout = sim::seconds(10);
      cfg.flush_timeout = sim::seconds(20);
      size_t idx = static_cast<size_t>(i);
      gcs::GroupCallbacks cb;
      cb.on_deliver = [this, idx](const gcs::Delivered&) {
        ++delivered[idx];
      };
      members.push_back(
          std::make_unique<gcs::GroupMember>(net, hosts[idx], cfg, cb));
    }
  }

  bool converge() {
    for (auto& m : members) m->join();
    auto converged = [&] {
      for (const auto& m : members)
        if (m->state() != gcs::GroupMember::State::kMember ||
            m->view().size() != members.size())
          return false;
      return true;
    };
    sim::Time limit = sim.now() + sim::seconds(120);
    while (sim.now() < limit && !converged()) sim.run_for(sim::msec(20));
    return converged();
  }

  bool drain(uint64_t expect, sim::Duration limit_len, sim::Duration step) {
    auto drained = [&] {
      for (uint64_t d : delivered)
        if (d < expect) return false;
      return true;
    };
    sim::Time limit = sim.now() + limit_len;
    while (sim.now() < limit && !drained()) sim.run_for(step);
    return drained();
  }
};

struct RunResult {
  bool ok = false;
  double order_ms_mean = 0.0;
  double order_ms_p95 = 0.0;
  double ctrl_per_msg = 0.0;
  double rotations = 0.0;
  double hold_ms_mean = 0.0;
};

RunResult run_sweep_point(gcs::OrderingMode mode, int n, uint32_t batch = 0,
                          uint32_t window = 0) {
  RunResult out;
  std::fprintf(stderr, "[n=%d %s b=%u w=%u] start\n", n,
               std::string(gcs::to_string(mode)).c_str(), batch, window);
  Rig rig(mode, n, batch, window);
  if (!rig.converge()) return out;
  std::fprintf(stderr, "[n=%d] converged at sim %.2fs\n", n,
               rig.sim.now().seconds());

  // Sustained load: rounds of kMaxSenders concurrent multicasts rotating
  // across the membership, kRoundGap apart -- "sustained" means every
  // round after the first lands on top of the previous round's
  // acknowledgement backlog.
  int senders = n < kMaxSenders ? n : kMaxSenders;
  int rounds = kTotalMsgs / senders;
  if (rounds < 2) rounds = 2;
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < senders; ++k) {
      size_t idx = static_cast<size_t>((r * senders + k) % n);
      rig.members[idx]->multicast(sim::Payload{static_cast<uint8_t>(r)});
    }
    rig.sim.run_for(kRoundGap);
  }
  uint64_t expect =
      static_cast<uint64_t>(rounds) * static_cast<uint64_t>(senders);
  std::fprintf(stderr, "[n=%d] load injected, sim %.2fs, draining\n", n,
               rig.sim.now().seconds());
  if (!rig.drain(expect, sim::minutes(10), sim::msec(20))) {
    uint64_t min_d = rig.delivered[0];
    for (uint64_t d : rig.delivered) min_d = d < min_d ? d : min_d;
    std::fprintf(stderr, "[n=%d] STALLED: min delivered %llu of %llu\n", n,
                 static_cast<unsigned long long>(min_d),
                 static_cast<unsigned long long>(expect));
    return out;
  }
  std::fprintf(stderr, "[n=%d] drained at sim %.2fs\n", n,
               rig.sim.now().seconds());

  const telemetry::Registry& m = rig.sim.telemetry().metrics();
  const auto* latency = m.find_histogram("gcs.order_latency_us");
  const auto* cuts = m.find_counter("gcs.cuts_sent");
  const auto* engine = m.find_counter("gcs.engine_msgs_sent");
  if (latency == nullptr || latency->data.count == 0) return out;
  out.order_ms_mean = latency->data.mean() / 1000.0;
  out.order_ms_p95 = latency->data.percentile(95) / 1000.0;
  uint64_t ctrl = (cuts != nullptr ? cuts->value : 0) +
                  (engine != nullptr ? engine->value : 0);
  out.ctrl_per_msg = static_cast<double>(ctrl) / static_cast<double>(expect);
  if (const auto* rot = m.find_counter("gcs.token.rotations"))
    out.rotations = static_cast<double>(rot->value);
  if (const auto* hold = m.find_histogram("gcs.token.hold_us"))
    if (hold->data.count > 0) out.hold_ms_mean = hold->data.mean() / 1000.0;
  out.ok = true;
  return out;
}

struct TputResult {
  bool ok = false;
  double cmds_per_s = 0.0;
  double batch_mean = 0.0;
  double window_stalls = 0.0;
};

/// Closed-loop throughput: preload every sender's full backlog in one
/// burst; the flow-control window paces it, batching amortizes the
/// per-message ordering cost. Measures sim-time from the burst to the last
/// member's last delivery.
TputResult run_closed_loop(gcs::OrderingMode mode, int n, uint32_t batch,
                           uint32_t window) {
  TputResult out;
  std::fprintf(stderr, "[tput n=%d %s b=%u w=%u] start\n", n,
               std::string(gcs::to_string(mode)).c_str(), batch, window);
  Rig rig(mode, n, batch, window);
  if (!rig.converge()) return out;

  sim::Time start = rig.sim.now();
  for (int s = 0; s < kTputSenders; ++s)
    for (int t = 0; t < kTputPerSender; ++t)
      rig.members[static_cast<size_t>(s)]->multicast(
          sim::Payload{static_cast<uint8_t>(s), static_cast<uint8_t>(t)});
  uint64_t expect =
      static_cast<uint64_t>(kTputSenders) * kTputPerSender;
  if (!rig.drain(expect, sim::minutes(10), sim::msec(1))) {
    std::fprintf(stderr, "[tput n=%d b=%u w=%u] STALLED\n", n, batch, window);
    return out;
  }
  sim::Duration elapsed = rig.sim.now() - start;
  if (elapsed.us <= 0) return out;
  out.cmds_per_s = static_cast<double>(expect) / elapsed.seconds();

  const telemetry::Registry& m = rig.sim.telemetry().metrics();
  if (const auto* bs = m.find_histogram("gcs.batch_size"))
    if (bs->data.count > 0) out.batch_mean = bs->data.mean();
  if (const auto* ws = m.find_counter("gcs.window_stalls"))
    out.window_stalls = static_cast<double>(ws->value);
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  std::printf(
      "==================================================================\n"
      "E10: ordering-engine head-count sweep (%d msgs sustained load)\n"
      "==================================================================\n"
      "%-6s %-8s %12s %12s %12s\n",
      kTotalMsgs, "N", "engine", "order mean", "order p95", "ctrl/msg");

  telemetry::ScenarioReport report;
  report.set_meta("experiment", "E10_ordering_sweep");
  std::map<int, std::map<gcs::OrderingMode, RunResult>> results;
  bool all_ok = true;
  for (int n : kHeadCounts) {
    for (gcs::OrderingMode mode :
         {gcs::OrderingMode::kAllAck, gcs::OrderingMode::kTokenRing}) {
      RunResult r = run_sweep_point(mode, n);
      results[n][mode] = r;
      std::string mode_name(gcs::to_string(mode));
      if (!r.ok) {
        std::printf("%-6d %-8s FAILED (no convergence or stalled delivery)\n",
                    n, mode_name.c_str());
        all_ok = false;
        continue;
      }
      std::printf("%-6d %-8s %9.2f ms %9.2f ms %12.2f\n", n,
                  mode_name.c_str(), r.order_ms_mean, r.order_ms_p95,
                  r.ctrl_per_msg);
      std::string prefix = mode_name + ".n" + std::to_string(n);
      report.set(prefix + ".order_ms_mean", r.order_ms_mean);
      report.set(prefix + ".order_ms_p95", r.order_ms_p95);
      report.set(prefix + ".ctrl_per_msg", r.ctrl_per_msg);
      if (mode == gcs::OrderingMode::kTokenRing) {
        report.set(prefix + ".rotations", r.rotations);
        report.set(prefix + ".hold_ms_mean", r.hold_ms_mean);
      }
    }
  }

  // The reproduction bar: strictly cheaper on both axes from N = 64.
  bool crossover = all_ok;
  for (int n : {64, 128}) {
    const RunResult& a = results[n][gcs::OrderingMode::kAllAck];
    const RunResult& t = results[n][gcs::OrderingMode::kTokenRing];
    if (!a.ok || !t.ok || t.order_ms_mean >= a.order_ms_mean ||
        t.ctrl_per_msg >= a.ctrl_per_msg)
      crossover = false;
  }
  report.set("crossover_at_64_ok", crossover ? 1 : 0);
  std::printf("\ntoken strictly cheaper (latency AND control msgs) at "
              "N >= 64: %s\n",
              crossover ? "yes" : "NO");

  // Part B.1 -- parity: batch=1/window=1 must not move the N=4 latency.
  // Tolerance matches the regression band on every latency key (25% + a
  // 0.1 ms absolute floor for sub-millisecond values).
  std::printf(
      "\n==================================================================\n"
      "E13: batched/pipelined hot path\n"
      "==================================================================\n");
  bool parity_ok = true;
  for (gcs::OrderingMode mode :
       {gcs::OrderingMode::kAllAck, gcs::OrderingMode::kTokenRing}) {
    RunResult p = run_sweep_point(mode, 4, /*batch=*/1, /*window=*/1);
    std::string mode_name(gcs::to_string(mode));
    const RunResult& legacy = results[4][mode];
    if (!p.ok || !legacy.ok) {
      parity_ok = false;
      std::printf("parity %-8s FAILED\n", mode_name.c_str());
      continue;
    }
    double band = legacy.order_ms_p95 * 0.25 + 0.1;
    bool ok = p.order_ms_p95 <= legacy.order_ms_p95 + band;
    parity_ok = parity_ok && ok;
    std::printf("parity %-8s n4 b1w1: p95 %.3f ms (legacy %.3f ms) %s\n",
                mode_name.c_str(), p.order_ms_p95, legacy.order_ms_p95,
                ok ? "ok" : "REGRESSED");
    std::string prefix = "parity." + mode_name + ".n4";
    report.set(prefix + ".order_ms_mean", p.order_ms_mean);
    report.set(prefix + ".order_ms_p95", p.order_ms_p95);
  }

  // Part B.2 -- closed-loop throughput sweep. The token ring runs at the
  // scale where batching pays (N=128); the all-ack engine at N=16, where
  // its closed loop is still tractable and the cumulative-ack coalescing
  // is measurable.
  std::printf("\n%-8s %-5s %-6s %-6s %14s %12s %10s\n", "engine", "N",
              "batch", "window", "cmds/s", "batch mean", "stalls");
  struct TputPoint {
    gcs::OrderingMode mode;
    int n;
  };
  std::map<std::string, double> tput;
  bool tput_ok = true;
  for (TputPoint point : {TputPoint{gcs::OrderingMode::kTokenRing, 128},
                          TputPoint{gcs::OrderingMode::kAllAck, 16}}) {
    for (uint32_t batch : {1u, 8u, 64u}) {
      for (uint32_t window : {1u, 16u}) {
        TputResult t = run_closed_loop(point.mode, point.n, batch, window);
        std::string mode_name(gcs::to_string(point.mode));
        if (!t.ok) {
          tput_ok = false;
          std::printf("%-8s %-5d %-6u %-6u FAILED\n", mode_name.c_str(),
                      point.n, batch, window);
          continue;
        }
        std::printf("%-8s %-5d %-6u %-6u %14.0f %12.1f %10.0f\n",
                    mode_name.c_str(), point.n, batch, window, t.cmds_per_s,
                    t.batch_mean, t.window_stalls);
        std::string key = "tput." + mode_name + ".n" + std::to_string(point.n) +
                          ".b" + std::to_string(batch) + ".w" +
                          std::to_string(window);
        report.set(key + ".cmds_per_s", t.cmds_per_s);
        tput[key] = t.cmds_per_s;
      }
    }
  }

  // The E13 bar: batching+pipelining must buy the token ring at least 5x
  // ordered throughput at N=128 over the unbatched lockstep configuration.
  double base = tput["tput.token.n128.b1.w1"];
  double best = tput["tput.token.n128.b64.w16"];
  double speedup = base > 0 ? best / base : 0.0;
  report.set("tput.token.n128.speedup_b64w16", speedup);
  if (double abase = tput["tput.allack.n16.b1.w1"]; abase > 0)
    report.set("tput.allack.n16.speedup_b64w16",
               tput["tput.allack.n16.b64.w16"] / abase);
  bool speedup_ok = tput_ok && speedup >= 5.0;
  std::printf("\ntoken n128 b64/w16 speedup over b1/w1: %.1fx (bar: 5x): %s\n",
              speedup, speedup_ok ? "yes" : "NO");

  bool ok = crossover && parity_ok && speedup_ok;
  if (report.write_file("BENCH_ordering.json"))
    std::printf("wrote BENCH_ordering.json\n");
  return ok ? 0 : 1;
}
