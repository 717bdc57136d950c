// E12: federated control plane -- shard-count scaling past one ordering
// group.
//
// The paper's symmetric active/active design totally orders EVERY command
// through one group, so aggregate throughput is capped by one group's
// ordering rate no matter how many heads are added. The federation shards
// the job/queue space across independent groups; this bench quantifies the
// trade with three legs:
//
//   A. Throughput: 256 total heads as 1x256 vs 4x64 (token engine),
//      identical closed-loop jsub load through the router. The reproduction
//      bar: 4 shards sustain >= 3x the 1-shard ordered-command rate.
//   B. Queue scale: one MILLION queued jobs federated 4 ways vs monolithic,
//      measuring single-id jstat (served via the local-read fast path --
//      pbs.jstat_local is reported) and jsub latency against that backlog.
//   C. Latency parity: the bench's own options at one shard (a 4-head
//      all-ack cluster under bench_ordering's cost model) against a plain
//      4-head ClusterOptions; both build through joshua::Cluster, so a
//      one-shard layout must not move the order p95 (gated against
//      baselines/BENCH_federation.json).
//
//   $ ./bench/bench_federation        # table + BENCH_federation.json
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fed/router.h"
#include "telemetry/scenario_report.h"

namespace {

/// Leg A: total heads across every shard (the acceptance point).
constexpr int kTotalHeads = 256;
constexpr int kThroughputCmds = 512;
constexpr int kClosedLoopWindow = 32;
/// Leg B: queued jobs across the whole federation.
constexpr uint64_t kMillion = 1000000;
/// Leg C mirrors bench_ordering's N = 4 all-ack sweep point.
constexpr int kParityCmds = 128;

struct LegResult {
  bool ok = false;
  double elapsed_s = 0.0;
  double cmds_per_s = 0.0;
  double order_ms_mean = 0.0;
  double order_ms_p95 = 0.0;
  double jstat_ms_p95 = 0.0;
  double jsub_ms_mean = 0.0;
  uint64_t jstat_local_served = 0;
  uint64_t queued_jobs = 0;
};

joshua::ClusterOptions bench_options(int shards, int heads_per_shard,
                                     gcs::OrderingMode ordering) {
  joshua::ClusterOptions fo;
  fo.head_count = shards * heads_per_shard;
  fo.compute_count = shards;
  fo.shards.count = shards;
  fo.cal = sim::fast_calibration();
  fo.ordering = ordering;
  // Persistence would keep a second copy of the million-job backlog as
  // per-job disk records, and neither leg measures the disk.
  fo.pbs_persist = false;
  // bench_ordering's cost model: modern heads (20 us heartbeat, 50 us
  // control packet) and a relaxed detector, so the sweep isolates ordering
  // asymptotics rather than heartbeat floors or view churn.
  fo.gcs_hb_proc = sim::usec(20);
  fo.gcs_ctrl_proc = sim::usec(50);
  fo.gcs_suspect = sim::seconds(10);
  fo.gcs_flush = sim::seconds(20);
  return fo;
}

void pull_order_latency(const sim::Simulation& sim, LegResult& out) {
  const telemetry::Registry& m = sim.telemetry().metrics();
  if (const auto* latency = m.find_histogram("gcs.order_latency_us")) {
    if (latency->data.count > 0) {
      out.order_ms_mean = latency->data.mean() / 1000.0;
      out.order_ms_p95 = latency->data.percentile(95) / 1000.0;
    }
  }
}

/// Closed-loop jsub load: keep `window` commands in flight until `total`
/// have completed, measuring the sustained ordered-command rate.
LegResult run_throughput_leg(int shards, int total_cmds) {
  LegResult out;
  int heads_per_shard = kTotalHeads / shards;
  std::fprintf(stderr, "[A %dx%d] building federation\n", shards,
               heads_per_shard);
  joshua::ClusterOptions fo =
      bench_options(shards, heads_per_shard, gcs::OrderingMode::kTokenRing);
  // All-to-all heartbeats at 256 heads are 650k messages per simulated
  // second -- pure failure-detector load that drowns the event core without
  // touching ordering throughput (token rotation is work-driven). 1 s
  // keeps the detector consistent with the 10 s suspect timeout; both
  // sweep points get the same setting, so the comparison is fair.
  fo.gcs_heartbeat = sim::seconds(1);
  joshua::Cluster f(std::move(fo));
  f.start();
  if (!f.run_until_converged(sim::minutes(10))) {
    std::fprintf(stderr, "[A %dx%d] FAILED to converge\n", shards,
                 heads_per_shard);
    return out;
  }
  std::fprintf(stderr, "[A %dx%d] converged at sim %.2fs\n", shards,
               heads_per_shard, f.sim().now().seconds());
  fed::Router router(f);

  int issued = 0, done = 0, accepted = 0, outstanding = 0;
  std::function<void()> pump = [&] {
    while (outstanding < kClosedLoopWindow && issued < total_cmds) {
      ++issued;
      ++outstanding;
      pbs::JobSpec spec;
      spec.name = "bench";
      // Spread across 64 queue names: hash placement balances the shards
      // the way a real site's queue mix would.
      spec.queue = "q" + std::to_string(issued % 64);
      spec.run_time = sim::hours(2);
      router.jsub(std::move(spec), [&](std::optional<pbs::SubmitResponse> r) {
        --outstanding;
        ++done;
        if (r && r->status == pbs::Status::kOk) ++accepted;
        pump();
      });
    }
  };
  sim::Time t0 = f.sim().now();
  pump();
  sim::Time limit = f.sim().now() + sim::hours(2);
  int ticks = 0;
  while (f.sim().now() < limit && done < total_cmds) {
    f.sim().run_for(sim::msec(50));
    if (++ticks % 40 == 0) {
      const telemetry::Registry& m = f.sim().telemetry().metrics();
      auto cval = [&](const char* name) {
        const auto* c = m.find_counter(name);
        return c == nullptr ? 0ull : static_cast<unsigned long long>(c->value);
      };
      std::fprintf(stderr,
                   "[A %dx%d]   sim %.1fs: %d/%d done, %llu events, "
                   "ctrl %llu, nacks %llu, rot %llu, data %llu\n",
                   shards, heads_per_shard, f.sim().now().seconds(), done,
                   total_cmds,
                   static_cast<unsigned long long>(f.sim().events_executed()),
                   cval("gcs.engine_msgs_sent"), cval("gcs.nacks_sent"),
                   cval("gcs.token.rotations"), cval("gcs.data_sent"));
    }
  }
  if (done < total_cmds || accepted != total_cmds) {
    std::fprintf(stderr, "[A %dx%d] STALLED: %d/%d done, %d accepted\n",
                 shards, heads_per_shard, done, total_cmds, accepted);
    return out;
  }
  out.elapsed_s = (f.sim().now() - t0).seconds();
  out.cmds_per_s =
      out.elapsed_s > 0 ? static_cast<double>(accepted) / out.elapsed_s : 0;
  pull_order_latency(f.sim(), out);
  out.ok = true;
  std::fprintf(stderr, "[A %dx%d] %d cmds in %.2fs sim = %.1f/s\n", shards,
               heads_per_shard, accepted, out.elapsed_s, out.cmds_per_s);
  return out;
}

/// A million queued jobs, then jstat/jsub against the backlog. One head per
/// shard keeps the replica memory equal across the comparison; the
/// local-read fast path answers the stats.
LegResult run_million_leg(int shards) {
  LegResult out;
  joshua::ClusterOptions fo =
      bench_options(shards, 1, gcs::OrderingMode::kAllAck);
  fo.jstat_local = true;
  joshua::Cluster f(std::move(fo));
  f.start();
  if (!f.run_until_converged(sim::minutes(2))) return out;

  uint64_t per_shard = kMillion / static_cast<uint64_t>(shards);
  pbs::JobSpec spec;
  spec.name = "backlog";
  spec.run_time = sim::hours(8);
  for (uint32_t s = 0; s < f.shard_count(); ++s)
    f.pbs_server(s).preload_queued(per_shard, spec);
  out.queued_jobs = per_shard * static_cast<uint64_t>(shards);
  std::fprintf(stderr, "[B %d shards] preloaded %llu queued jobs\n", shards,
               static_cast<unsigned long long>(out.queued_jobs));
  fed::Router router(f);

  // Single-id jstat sweep across the backlog (the jstat -all path would
  // encode the whole million-job table; per-id reads are what users issue
  // against a deep queue).
  constexpr int kStats = 200;
  telemetry::HistogramData jstat_ms{};
  int pending = 0;
  for (int i = 0; i < kStats; ++i) {
    uint32_t shard = static_cast<uint32_t>(i) % f.shard_count();
    pbs::StatRequest req;
    req.job_id = router.layout().first_id(shard) +
                 static_cast<pbs::JobId>(i) % per_shard;
    sim::Time sent = f.sim().now();
    ++pending;
    router.jstat(req, [&, sent](std::optional<pbs::StatResponse> r) {
      --pending;
      if (r && r->status == pbs::Status::kOk)
        jstat_ms.record((f.sim().now() - sent).us);
    });
    f.sim().run_for(sim::msec(5));
  }
  sim::Time limit = f.sim().now() + sim::minutes(5);
  while (f.sim().now() < limit && pending > 0) f.sim().run_for(sim::msec(10));
  if (jstat_ms.count < kStats / 2) return out;
  out.jstat_ms_p95 = jstat_ms.percentile(95) / 1000.0;

  // jsub against the million-job backlog: the ordered path must not degrade
  // with queue depth (submission touches the id counter and the job map,
  // never the whole backlog).
  constexpr int kSubs = 50;
  double jsub_total_ms = 0;
  int accepted = 0;
  pending = 0;
  for (int i = 0; i < kSubs; ++i) {
    pbs::JobSpec s2;
    s2.name = "probe";
    s2.queue = "q" + std::to_string(i);
    s2.run_time = sim::hours(2);
    sim::Time sent = f.sim().now();
    ++pending;
    router.jsub(std::move(s2), [&, sent](std::optional<pbs::SubmitResponse> r) {
      --pending;
      if (r && r->status == pbs::Status::kOk) {
        ++accepted;
        jsub_total_ms += (f.sim().now() - sent).us / 1000.0;
      }
    });
    f.sim().run_for(sim::msec(5));
  }
  limit = f.sim().now() + sim::minutes(5);
  while (f.sim().now() < limit && pending > 0) f.sim().run_for(sim::msec(10));
  if (accepted < kSubs) return out;
  out.jsub_ms_mean = jsub_total_ms / accepted;

  for (size_t h = 0; h < f.head_count(); ++h)
    out.jstat_local_served +=
        f.joshua_server(h).core_stats().local_reads.count();
  out.ok = true;
  std::fprintf(stderr,
               "[B %d shards] jstat p95 %.2f ms, jsub mean %.2f ms, "
               "%llu stats served locally\n",
               shards, out.jstat_ms_p95, out.jsub_ms_mean,
               static_cast<unsigned long long>(out.jstat_local_served));
  return out;
}

/// Leg C drive pattern, shared by the federation and the monolithic
/// control: bench_ordering's N = 4 sweep point sends one multicast per
/// member per round, 20 ms apart. A jsub multicasts from whichever head
/// the client talks to, so pin one client per head (rotated head lists)
/// and issue rounds of 4 -- same origins, same concurrency, same cadence.
LegResult run_parity_pattern(joshua::Cluster& plane, const char* tag) {
  const sim::Calibration& cal = plane.options().cal;
  LegResult out;
  constexpr int kHeads = 4;
  std::vector<sim::Endpoint> heads;
  for (int h = 0; h < kHeads; ++h)
    heads.push_back(
        {plane.head_hosts()[static_cast<size_t>(h)], joshua::Ports::kJoshua});
  std::vector<std::unique_ptr<joshua::Client>> clients;
  for (int k = 0; k < kHeads; ++k) {
    std::vector<sim::Endpoint> rotated;
    for (int j = 0; j < kHeads; ++j)
      rotated.push_back(heads[static_cast<size_t>((k + j) % kHeads)]);
    clients.push_back(std::make_unique<joshua::Client>(
        plane.net(), plane.login_host(),
        static_cast<sim::Port>(joshua::Ports::kClientBase + 100 + k),
        joshua::joshua_client_config_from(cal, std::move(rotated))));
  }

  int done = 0, accepted = 0;
  sim::Time t0 = plane.sim().now();
  for (int r = 0; r < kParityCmds / kHeads; ++r) {
    for (int k = 0; k < kHeads; ++k) {
      pbs::JobSpec spec;
      spec.name = "parity";
      spec.queue = "batch";
      spec.run_time = sim::hours(2);
      clients[static_cast<size_t>(k)]->jsub(
          std::move(spec), [&](std::optional<pbs::SubmitResponse> r2) {
            ++done;
            if (r2 && r2->status == pbs::Status::kOk) ++accepted;
          });
    }
    plane.sim().run_for(sim::msec(20));
  }
  sim::Time limit = plane.sim().now() + sim::minutes(10);
  while (plane.sim().now() < limit && done < kParityCmds)
    plane.sim().run_for(sim::msec(20));
  if (accepted < kParityCmds) return out;
  out.elapsed_s = (plane.sim().now() - t0).seconds();
  out.cmds_per_s = static_cast<double>(accepted) / out.elapsed_s;
  pull_order_latency(plane.sim(), out);
  out.ok = out.order_ms_p95 > 0;
  std::fprintf(stderr, "[C %s] order p95 %.3f ms\n", tag, out.order_ms_p95);
  return out;
}

/// Leg C: the behaviour-identical check. The same all-ack jsub pattern
/// against the bench's options at one shard and a plain 4-head
/// ClusterOptions; a one-shard layout must not move the gcs order latency. (The absolute number sits above bench_ordering's raw allack.n4
/// point because every delivered jsub also EXECUTES on each replica here;
/// bench_ordering orders empty payloads.)
std::pair<LegResult, LegResult> run_parity_leg() {
  LegResult fed_point, mono_point;
  // GroupConfig's default hb/ctrl costs this time (the plain options keep
  // them): at N = 4 they are noise, and the comparison only needs both
  // planes configured identically.
  joshua::ClusterOptions fo = bench_options(1, 4, gcs::OrderingMode::kAllAck);
  fo.gcs_hb_proc = sim::kDurationZero;
  fo.gcs_ctrl_proc = sim::kDurationZero;
  fo.pbs_persist = true;  // the plain options persist; configure both alike
  joshua::Cluster f(std::move(fo));
  f.start();
  if (f.run_until_converged(sim::minutes(2)))
    fed_point = run_parity_pattern(f, "fed 1x4 allack");

  joshua::ClusterOptions co;
  co.head_count = 4;
  co.compute_count = 1;
  co.cal = sim::fast_calibration();
  co.ordering = gcs::OrderingMode::kAllAck;
  co.gcs_suspect = sim::seconds(10);
  co.gcs_flush = sim::seconds(20);
  joshua::Cluster mono(co);
  mono.start();
  if (mono.run_until_converged(sim::minutes(2)))
    mono_point = run_parity_pattern(mono, "monolithic 4-head allack");
  return {fed_point, mono_point};
}

}  // namespace

int main(int argc, char** argv) {
  // Optional leg filter for iterating locally ("A", "B", or "C"); the full
  // run (no argument) is what writes the gated report.
  std::string only = argc > 1 ? argv[1] : "";
  bool run_a = only.empty() || only == "A";
  bool run_b = only.empty() || only == "B";
  bool run_c = only.empty() || only == "C";
  std::printf(
      "==================================================================\n"
      "E12: federated control plane (shard the job/queue space)\n"
      "==================================================================\n");
  telemetry::ScenarioReport report;
  report.set_meta("experiment", "E12_federation");

  // -- Leg A: throughput at 256 total heads ----------------------------------
  LegResult a1 = run_a ? run_throughput_leg(1, kThroughputCmds) : LegResult{};
  LegResult a4 = run_a ? run_throughput_leg(4, kThroughputCmds) : LegResult{};
  double speedup = (a1.ok && a4.ok && a1.cmds_per_s > 0)
                       ? a4.cmds_per_s / a1.cmds_per_s
                       : 0.0;
  std::printf("leg A (token, %d cmds, %d total heads):\n", kThroughputCmds,
              kTotalHeads);
  std::printf("  1 x 256 : %8.1f ordered cmds/s (p95 order %.2f ms)\n",
              a1.cmds_per_s, a1.order_ms_p95);
  std::printf("  4 x  64 : %8.1f ordered cmds/s (p95 order %.2f ms)\n",
              a4.cmds_per_s, a4.order_ms_p95);
  std::printf("  speedup : %8.2fx (bar: >= 3x)\n", speedup);
  report.set("fed1.throughput_cmds_per_s", a1.cmds_per_s);
  report.set("fed1.order_ms_p95", a1.order_ms_p95);
  report.set("fed4.throughput_cmds_per_s", a4.cmds_per_s);
  report.set("fed4.order_ms_p95", a4.order_ms_p95);
  report.set("fed4.speedup_vs_fed1", speedup);

  // -- Leg B: a million queued jobs ------------------------------------------
  LegResult b1 = run_b ? run_million_leg(1) : LegResult{};
  LegResult b4 = run_b ? run_million_leg(4) : LegResult{};
  std::printf("leg B (%llu queued jobs, local-read jstat):\n",
              static_cast<unsigned long long>(kMillion));
  std::printf("  1 shard : jstat p95 %6.2f ms, jsub mean %6.2f ms\n",
              b1.jstat_ms_p95, b1.jsub_ms_mean);
  std::printf("  4 shards: jstat p95 %6.2f ms, jsub mean %6.2f ms "
              "(%llu stats served off the local replica)\n",
              b4.jstat_ms_p95, b4.jsub_ms_mean,
              static_cast<unsigned long long>(b4.jstat_local_served));
  report.set("fed1.million.queued_jobs", static_cast<double>(b1.queued_jobs));
  report.set("fed1.million.jstat_ms_p95", b1.jstat_ms_p95);
  report.set("fed1.million.jsub_ms_mean", b1.jsub_ms_mean);
  report.set("fed4.million.queued_jobs", static_cast<double>(b4.queued_jobs));
  report.set("fed4.million.jstat_ms_p95", b4.jstat_ms_p95);
  report.set("fed4.million.jsub_ms_mean", b4.jsub_ms_mean);
  report.set("fed4.million.pbs.jstat_local",
             static_cast<double>(b4.jstat_local_served));

  // -- Leg C: 1-shard all-ack parity at N = 4 --------------------------------
  auto [c, c_mono] = run_c ? run_parity_leg()
                           : std::pair<LegResult, LegResult>{};
  double parity_ratio = (c.ok && c_mono.ok && c_mono.order_ms_p95 > 0)
                            ? c.order_ms_p95 / c_mono.order_ms_p95
                            : 0.0;
  std::printf("leg C (4-head all-ack, identical jsub pattern):\n");
  std::printf("  1-shard federation : order p95 %.3f ms\n", c.order_ms_p95);
  std::printf("  monolithic cluster : order p95 %.3f ms (ratio %.2f, "
              "bar: within 25%%)\n",
              c_mono.order_ms_p95, parity_ratio);
  report.set("allack_n4.order_ms_p95", c.order_ms_p95);
  report.set("allack_n4.order_ms_mean", c.order_ms_mean);
  report.set("allack_n4.mono_order_ms_p95", c_mono.order_ms_p95);
  report.set("allack_n4.parity_ratio", parity_ratio);

  bool pass = true;
  if (run_a) {
    pass = pass && a1.ok && a4.ok && speedup >= 3.0;
  }
  if (run_b) {
    pass = pass && b1.ok && b4.ok && b1.queued_jobs >= kMillion &&
           b4.queued_jobs >= kMillion && b4.jstat_local_served > 0;
  }
  if (run_c) {
    // The behaviour-identical claim: the federation layer at one shard must
    // not move the order p95 measured against a plain cluster under the
    // same drive pattern. Absolute drift is gated by
    // baselines/federation_rules.json.
    pass = pass && c.ok && c_mono.ok && parity_ratio > 0.75 &&
           parity_ratio < 1.25;
  }
  report.set("federation_bar_ok", pass ? 1 : 0);

  std::printf("\nfederation bar (>= 3x at 4 shards, 1M jobs queued, local "
              "reads served, 1-shard parity with the monolith): %s\n",
              pass ? "yes" : "NO");
  if (report.write_file("BENCH_federation.json"))
    std::printf("wrote BENCH_federation.json\n");
  return pass ? 0 : 1;
}
