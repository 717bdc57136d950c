// High-throughput campaign: the paper's motivating scenario for Figure 11
// ("high throughput HPC scenarios, such as in computational biology or
// on-demand cluster computing") -- a user scripts 100 short parameter-sweep
// jobs through jsub, and a head node fails in the middle of the campaign.
//
// Prints the simulation's full metrics table and writes
// campaign.report.json (ScenarioReport, the BENCH_*.json shape).
//
//   $ ./examples/high_throughput_campaign [jobs] [heads]
#include <cstdio>
#include <cstdlib>

#include "joshua/cluster.h"
#include "joshua/config_file.h"
#include "telemetry/scenario_report.h"
#include "telemetry/snapshot.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  int jobs = argc > 1 ? std::atoi(argv[1]) : 100;
  int heads = argc > 2 ? std::atoi(argv[2]) : 2;
  if (jobs <= 0 || heads <= 0 || heads > 8) {
    std::fprintf(stderr, "usage: %s [jobs>0] [1<=heads<=8]\n", argv[0]);
    return 2;
  }

  joshua::ClusterOptions options;
  joshua::apply_env(options, std::getenv);
  options.head_count = heads;
  options.compute_count = 2;
  // Short jobs, non-exclusive so both compute nodes chew the queue.
  options.sched.exclusive_cluster = false;
  joshua::Cluster cluster(options);
  // A long campaign floods the trace ring with data-path records; give the
  // rare membership streams their own quota so the early view changes (the
  // interesting part of the mid-campaign failure) survive to the report.
  telemetry::TraceBuffer& trace = cluster.sim().telemetry().trace();
  trace.set_category_capacity(trace.intern("gcs.view"), 1024);
  trace.set_category_capacity(trace.intern("gcs.flush"), 1024);
  cluster.start();
  if (!cluster.run_until_converged()) {
    std::printf("FATAL: no view\n");
    return 1;
  }

  std::printf("== %d-job campaign on %d head(s), 2 compute nodes ==\n", jobs,
              heads);
  joshua::Client& client = cluster.make_jclient();
  jutil::Samples latencies;
  int accepted = 0;
  int finished_submitting = 0;
  sim::Time campaign_start = cluster.sim().now();

  std::function<void()> submit_next = [&] {
    pbs::JobSpec spec;
    spec.name = "sweep-" + std::to_string(accepted);
    spec.user = "bio";
    spec.run_time = sim::seconds(30);
    sim::Time t0 = cluster.sim().now();
    client.jsub(spec, [&, t0](std::optional<pbs::SubmitResponse> r) {
      latencies.add((cluster.sim().now() - t0).millis());
      if (r && r->status == pbs::Status::kOk) ++accepted;
      if (++finished_submitting < jobs) submit_next();
    });
  };
  submit_next();

  // Fail a head one third of the way through (only if we have a spare).
  bool failed = false;
  while (finished_submitting < jobs) {
    cluster.sim().run_for(sim::msec(50));
    if (!failed && heads > 1 && finished_submitting > jobs / 3) {
      failed = true;
      std::printf("[%8.3fs] >>> head0 fails mid-campaign (job %d of %d)\n",
                  cluster.sim().now().seconds(), finished_submitting, jobs);
      cluster.net().crash_host(cluster.head_hosts()[0]);
    }
  }
  sim::Duration submit_time = cluster.sim().now() - campaign_start;
  std::printf("[%8.3fs] all %d submissions answered, %d accepted\n",
              cluster.sim().now().seconds(), jobs, accepted);
  std::printf("submission wall time: %.2fs  (mean %.0f ms, p95 %.0f ms, "
              "max %.0f ms)\n",
              submit_time.seconds(), latencies.mean(),
              latencies.percentile(95), latencies.max());

  // Drain the queue.
  size_t live_head = heads > 1 && failed ? 1 : 0;
  bool drained = false;
  sim::Time drain_limit =
      cluster.sim().now() + sim::seconds(60L * jobs + 120);
  while (cluster.sim().now() < drain_limit) {
    const pbs::Server& server = cluster.pbs_server(live_head);
    size_t complete = server.count_in_state(pbs::JobState::kComplete);
    if (complete >= static_cast<size_t>(accepted) &&
        complete == server.jobs().size()) {
      drained = true;
      break;
    }
    cluster.sim().run_for(sim::seconds(1));
  }
  uint64_t executed = 0;
  for (size_t c = 0; c < cluster.compute_count(); ++c)
    executed += cluster.mom(c).jobs_executed();
  size_t total_jobs = cluster.pbs_server(live_head).jobs().size();
  std::printf("[%8.3fs] campaign drained: %s; %zu jobs in the queue, "
              "%llu executed (exactly once each)\n",
              cluster.sim().now().seconds(), drained ? "yes" : "NO",
              total_jobs, static_cast<unsigned long long>(executed));
  if (total_jobs > static_cast<size_t>(accepted)) {
    std::printf("note: %zu duplicate submission(s) from client retry after "
                "the head failure -- the PBS interface is at-least-once, "
                "exactly as in the paper's prototype\n",
                total_jobs - static_cast<size_t>(accepted));
  }
  // Pass: everything accepted, every queued job ran exactly once, and at
  // most one duplicate per injected failure (at-least-once retry).
  bool pass = drained && accepted == jobs &&
              executed == static_cast<uint64_t>(total_jobs) &&
              total_jobs <= static_cast<size_t>(accepted) + 1;

  // One coherent report over every instrumented layer of the run.
  std::printf("\n%s\n",
              telemetry::render_metrics_table(
                  cluster.sim().telemetry().metrics()).c_str());
  telemetry::ScenarioReport report;
  report.set("jobs", jobs);
  report.set("heads", heads);
  report.set("jobs_accepted", accepted);
  report.set("jobs_executed", static_cast<double>(executed));
  report.set("submit_wall_s", submit_time.seconds());
  report.set("drained", drained ? 1 : 0);
  report.set("campaign_passed", pass ? 1 : 0);
  report.note_samples("submit_latency_ms", latencies);
  report.note_metrics(cluster.sim().telemetry().metrics());
  if (report.write_file("campaign.report.json"))
    std::printf("wrote campaign.report.json\n");

  std::printf("%s\n", pass ? "CAMPAIGN PASSED" : "CAMPAIGN FAILED");
  return pass ? 0 : 1;
}
