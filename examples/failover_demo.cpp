// Failover demo: reproduce the paper's functional test -- head nodes are
// "unplugged" while jobs run; service continues with no loss of state, and
// a head later rejoins with a state transfer.
//
//   $ ./examples/failover_demo [heads] [out_prefix]
//
// `heads` (default 3, minimum 3) sizes the JOSHUA group; every head but
// head1 is eventually crashed so head1 always ends up serving alone. The
// run writes two artifacts:
//   <out_prefix>.trace.json  -- Chrome trace-event timeline (one track per
//                               simulated host; open in ui.perfetto.dev)
//   <out_prefix>.report.json -- flat ScenarioReport (BENCH_*.json shape)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "joshua/cluster.h"
#include "joshua/config_file.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/scenario_report.h"
#include "util/logging.h"

namespace {

void banner(const joshua::Cluster& cluster, const std::string& msg) {
  std::printf("[%8.3fs] %s\n",
              const_cast<joshua::Cluster&>(cluster).sim().now().seconds(),
              msg.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  jutil::Logger::instance().set_level(jutil::LogLevel::kWarn);

  int heads = argc > 1 ? std::atoi(argv[1]) : 3;
  if (heads < 3) {
    std::fprintf(stderr, "usage: %s [heads>=3] [out_prefix]\n", argv[0]);
    return 2;
  }
  std::string prefix = argc > 2 ? argv[2] : "failover_demo";

  joshua::ClusterOptions options;
  joshua::apply_env(options, std::getenv);
  options.head_count = heads;
  options.compute_count = 2;
  joshua::Cluster cluster(options);
  cluster.start();
  if (!cluster.run_until_converged()) {
    std::printf("FATAL: no initial view\n");
    return 1;
  }
  banner(cluster, std::to_string(heads) + "-head JOSHUA group in service");

  joshua::Client& client = cluster.make_jclient();
  int accepted = 0;
  for (int i = 0; i < 4; ++i) {
    pbs::JobSpec spec;
    spec.name = "workload-" + std::to_string(i);
    spec.run_time = sim::seconds(20);
    client.jsub(spec, [&](std::optional<pbs::SubmitResponse> r) {
      if (r && r->status == pbs::Status::kOk) ++accepted;
    });
  }
  cluster.sim().run_for(sim::seconds(5));
  std::printf("[%8.3fs] %d jobs accepted; job 1 is running\n",
              cluster.sim().now().seconds(), accepted);

  // --- pull the cable on head0 (the current gcs coordinator) -------------
  cluster.net().crash_host(cluster.head_hosts()[0]);
  banner(cluster, ">>> head0 crashed (cable pulled)");
  cluster.run_until_converged();
  std::printf("[%8.3fs] survivors re-formed a view of %zu heads -- no "
              "interruption of service\n",
              cluster.sim().now().seconds(),
              cluster.joshua_server(1).group().view().size());

  // Submissions keep working (client fails over transparently).
  bool ok = false;
  pbs::JobSpec extra;
  extra.name = "submitted-during-outage";
  extra.run_time = sim::seconds(20);
  client.jsub(extra, [&](std::optional<pbs::SubmitResponse> r) {
    ok = r && r->status == pbs::Status::kOk;
  });
  cluster.sim().run_for(sim::seconds(5));
  std::printf("[%8.3fs] submission during the outage: %s (failovers: %llu)\n",
              cluster.sim().now().seconds(), ok ? "accepted" : "FAILED",
              static_cast<unsigned long long>(client.failovers()));

  // --- crash every other head too; head1 must carry the service alone ------
  for (int h = 2; h < heads; ++h) {
    cluster.net().crash_host(cluster.head_hosts()[h]);
    banner(cluster, ">>> head" + std::to_string(h) + " crashed too");
  }
  cluster.run_until_converged();
  std::printf("[%8.3fs] head1 serves alone; queue has %zu jobs\n",
              cluster.sim().now().seconds(),
              cluster.pbs_server(1).jobs().size());

  // --- repair and rejoin ---------------------------------------------------
  cluster.net().restart_host(cluster.head_hosts()[0]);
  cluster.joshua_server(0).start();
  banner(cluster, ">>> head0 repaired, rejoining (state transfer)");
  cluster.run_until_converged(sim::seconds(60));
  cluster.sim().run_for(sim::seconds(10));
  std::printf("[%8.3fs] head0 back: its PBS server now holds %zu jobs "
              "(replayed %llu commands)\n",
              cluster.sim().now().seconds(),
              cluster.pbs_server(0).jobs().size(),
              static_cast<unsigned long long>(
                  cluster.joshua_server(0).stats().replays_applied.count()));

  // --- drain ---------------------------------------------------------------
  cluster.sim().run_for(sim::seconds(120));
  size_t complete0 = cluster.pbs_server(0).count_in_state(pbs::JobState::kComplete);
  size_t complete1 = cluster.pbs_server(1).count_in_state(pbs::JobState::kComplete);
  uint64_t executed =
      cluster.mom(0).jobs_executed() + cluster.mom(1).jobs_executed();
  std::printf("\nfinal: head0 sees %zu complete, head1 sees %zu complete, "
              "moms executed %llu jobs (each exactly once)\n",
              complete0, complete1,
              static_cast<unsigned long long>(executed));
  bool pass = complete1 == 5 && executed == 5 && ok;

  // --- export the run ------------------------------------------------------
  telemetry::Hub& hub = cluster.sim().telemetry();
  std::vector<std::string> host_names;
  for (sim::HostId h = 0; h < cluster.net().host_count(); ++h) {
    host_names.push_back(cluster.net().host(h).name());
  }
  std::string trace_path = prefix + ".trace.json";
  std::string report_path = prefix + ".report.json";
  if (!telemetry::write_chrome_trace_file(trace_path, hub.trace(),
                                          host_names)) {
    std::printf("FAILED to write %s\n", trace_path.c_str());
    return 1;
  }

  telemetry::ScenarioReport report;
  report.set("heads", heads);
  report.set("jobs_accepted", accepted);
  report.set("jobs_complete_head1", static_cast<double>(complete1));
  report.set("jobs_executed_by_moms", static_cast<double>(executed));
  report.set("client_failovers", static_cast<double>(client.failovers()));
  report.set("outage_submission_ok", ok ? 1 : 0);
  report.set("demo_passed", pass ? 1 : 0);
  report.note_metrics(hub.metrics());
  if (!report.write_file(report_path)) {
    std::printf("FAILED to write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%llu trace events) and %s\n", trace_path.c_str(),
              static_cast<unsigned long long>(hub.trace().size()),
              report_path.c_str());

  std::printf("%s\n", pass ? "DEMO PASSED" : "DEMO FAILED");
  return pass ? 0 : 1;
}
