// Compute-plane failover scenario: the acceptance run for r-way job
// replication, executed as two legs over the SAME stochastic compute-fault
// schedule (same seed, same pool):
//
//   replicated leg -- r = 2, 5 s mom heartbeat, failover on. Must lose
//                     nothing: zero invariant violations, zero lost jobs,
//                     zero duplicate completions.
//   baseline leg   -- r = 1, heartbeat off: the paper's accepted failure
//                     mode, where a compute-node crash takes its running
//                     job with it. Must lose SOMETHING, or the injector is
//                     broken.
//
//   $ ./examples/compute_failover [out_prefix]
//
// Writes <out_prefix>.report.json (replicated-leg ScenarioReport plus
// baseline.* keys, gated in CI by tools/report_diff against
// baselines/compute_failover.report.json) and <out_prefix>.trace.json
// (replicated-leg Chrome trace). JOSHUA_REPLICATION / JOSHUA_COMPUTES
// sweep r and the pool size for manual runs; CI's gated run leaves them
// unset.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "telemetry/chrome_trace.h"
#include "util/logging.h"

namespace {

scenariotest::ScenarioOptions leg_options() {
  scenariotest::ScenarioOptions options;
  options.name = "compute_failover";
  options.heads = 3;
  options.computes = scenariotest::env_computes();
  options.replication = scenariotest::env_replication(options.computes);
  options.seed = 20260807;
  options.duration = sim::hours(12);
  options.random_head_faults = false;
  options.command_interval = sim::seconds(60);
  options.job_runtime_min = sim::seconds(20);
  options.job_runtime_max = sim::seconds(120);
  options.random_compute_faults = true;
  options.compute_mttf = sim::hours(1);
  options.compute_mttr = sim::minutes(2);
  options.mom_heartbeat = sim::seconds(5);
  options.heartbeat_miss_limit = 3;
  return options;
}

void print_leg(const char* leg, const scenariotest::ScenarioResult& r) {
  std::printf(
      "%s: %d compute faults, %llu accepted, %llu completed, %llu lost, "
      "%llu duplicate completions, %zu violations\n",
      leg, r.compute_fault_count,
      static_cast<unsigned long long>(r.jsub_accepted),
      static_cast<unsigned long long>(r.jobs_completed),
      static_cast<unsigned long long>(r.jobs_lost),
      static_cast<unsigned long long>(r.duplicate_completions),
      r.violations.size());
  for (const auto& v : r.violations) std::printf("  violation: %s\n", v.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  jutil::Logger::instance().set_level(jutil::LogLevel::kError);
  std::string prefix = argc > 1 ? argv[1] : "compute_failover";

  // --- replicated leg ------------------------------------------------------
  scenariotest::ScenarioOptions replicated = leg_options();
  scenariotest::ScenarioRunner replicated_runner(replicated);
  scenariotest::ScenarioResult rep = replicated_runner.run();
  print_leg("replicated (r-way, heartbeat on)", rep);

  // --- baseline leg --------------------------------------------------------
  scenariotest::ScenarioOptions baseline = leg_options();
  baseline.replication = 1;
  baseline.mom_heartbeat = sim::kDurationZero;
  baseline.tolerate_lost_jobs = true;
  scenariotest::ScenarioRunner baseline_runner(baseline);
  scenariotest::ScenarioResult base = baseline_runner.run();
  print_leg("baseline (r = 1, no heartbeat)", base);

  // Injector precondition scales with the pool: ~1 fault per pool-hour,
  // so even a 2-node sweep must see a meaningful schedule.
  int min_faults = 5 * replicated.computes;
  bool replicated_ok = rep.ok() && rep.jobs_lost == 0 &&
                       rep.duplicate_completions == 0 &&
                       rep.compute_fault_count >= min_faults;
  bool baseline_lossy = base.ok() && base.jobs_lost > 0 &&
                        base.duplicate_completions == 0;
  bool pass = replicated_ok && baseline_lossy;
  if (!replicated_ok)
    std::printf("FAIL: replicated leg (need 0 violations/losses/duplicates "
                "and >= %d faults)\n",
                min_faults);
  if (!baseline_lossy)
    std::printf("FAIL: baseline leg (need 0 violations, > 0 lost jobs)\n");

  // --- export --------------------------------------------------------------
  telemetry::ScenarioReport& report = rep.report;
  report.set("baseline.compute_faults",
             static_cast<double>(base.compute_fault_count));
  report.set("baseline.jsub_accepted", static_cast<double>(base.jsub_accepted));
  report.set("baseline.jobs_completed",
             static_cast<double>(base.jobs_completed));
  report.set("baseline.jobs_lost", static_cast<double>(base.jobs_lost));
  report.set("baseline.duplicate_completions",
             static_cast<double>(base.duplicate_completions));
  report.set("baseline.violations", static_cast<double>(base.violations.size()));
  report.set("replicated_leg_ok", replicated_ok ? 1 : 0);
  report.set("baseline_leg_lossy", baseline_lossy ? 1 : 0);
  report.set("demo_passed", pass ? 1 : 0);

  std::string report_path = prefix + ".report.json";
  if (!report.write_file(report_path)) {
    std::printf("FAILED to write %s\n", report_path.c_str());
    return 1;
  }

  telemetry::Hub& hub = replicated_runner.cluster().sim().telemetry();
  sim::Network& net = replicated_runner.cluster().net();
  std::vector<std::string> host_names;
  for (sim::HostId h = 0; h < net.host_count(); ++h)
    host_names.push_back(net.host(h).name());
  std::string trace_path = prefix + ".trace.json";
  if (!telemetry::write_chrome_trace_file(trace_path, hub.trace(),
                                          host_names)) {
    std::printf("FAILED to write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", report_path.c_str(), trace_path.c_str());

  std::printf("%s\n", pass ? "SCENARIO PASSED" : "SCENARIO FAILED");
  return pass ? 0 : 1;
}
