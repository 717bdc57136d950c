// E14: scheduler policy sweep on trace-driven workloads (DESIGN.md §11).
//
// The paper pins Maui to FIFO + exclusive cluster access purely for
// determinism ("this restriction may be lifted in the future if
// deterministic allocation behavior can be assured"). Every policy is a
// deterministic pure function, so the restriction can be lifted --
// this bench quantifies what it was costing.
//
// Part A (utilization): a bursty submit trace (storms + quiet gaps, the
// regime where backfill has real holes to fill) runs through one PBS
// server per policy on an 8-node cluster. Reproduction bar, asserted in
// the exit code (CI also holds BENCH_scheduler.json to its baseline byte
// for byte): EASY
// backfill and priority scheduling must each reach >= 1.5x the node
// utilization of the paper's FIFO-exclusive configuration.
//
// Part B (responsiveness): a mixed-priority steady trace measures what
// the priority and preemption policies buy the high-priority class: mean
// queue wait of the top priority level under fifo vs priority vs preempt.
// Bar: priority scheduling must cut the high-class mean wait vs FIFO, and
// preemption must cut it further.
//
// Every run is also executed twice for the lead policy to demonstrate the
// determinism contract end to end (identical makespan, identical
// utilization).
//
//   $ ./bench/bench_scheduler       # table + BENCH_scheduler.json
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pbs/client.h"
#include "pbs/mom.h"
#include "pbs/server.h"
#include "pbs/workload.h"
#include "sim/calibration.h"
#include "telemetry/scenario_report.h"

namespace {

constexpr int kNodes = 8;
constexpr uint64_t kSeed = 3;

struct TraceResult {
  bool ok = false;
  double makespan_s = 0;    ///< first submit to last completion
  double utilization = 0;   ///< useful node-seconds / (nodes * makespan)
  double backfilled = 0;    ///< out-of-FIFO-order admissions
  double preemptions = 0;   ///< ordered requeues of running jobs
  double mean_wait_s = 0;   ///< queue wait, all completed jobs
  double high_wait_s = 0;   ///< queue wait, top priority class only
};

/// Replay a trace through one standalone PBS server (no replication layer:
/// this measures scheduling quality, not ordering cost) and account the
/// outcome. Deterministic: (sched, trace) fully determine the result.
TraceResult run_trace(const pbs::SchedulerConfig& sched,
                      const std::vector<pbs::TraceOp>& trace) {
  TraceResult result;
  sim::Simulation simulation(kSeed);
  sim::Network net(simulation, sim::fast_calibration().network);
  sim::HostId head = net.add_host("head").id();
  std::vector<sim::HostId> computes;
  for (int i = 0; i < kNodes; ++i)
    computes.push_back(net.add_host("n" + std::to_string(i)).id());
  sim::HostId login = net.add_host("login").id();

  pbs::ServerConfig cfg = pbs::server_config_from(sim::fast_calibration());
  cfg.port = 15001;
  cfg.sched = sched;
  cfg.sched_interval = sim::msec(200);
  for (sim::HostId h : computes) cfg.moms.push_back({h, 15002});
  pbs::Server server(net, head, cfg);
  std::vector<std::unique_ptr<pbs::Mom>> moms;
  for (sim::HostId h : computes) {
    pbs::MomConfig mcfg = pbs::mom_config_from(sim::fast_calibration());
    mcfg.port = 15002;
    moms.push_back(std::make_unique<pbs::Mom>(net, h, mcfg));
  }
  pbs::ClientConfig ccfg = pbs::client_config_from(
      sim::fast_calibration(), sim::Endpoint{head, 15001});
  pbs::Client client(net, login, 20000, ccfg);

  size_t expected = 0;
  for (const pbs::TraceOp& op : trace)
    if (op.kind == pbs::TraceOp::Kind::kSubmit)
      expected += op.spec.array_count > 1 ? op.spec.array_count : 1;

  sim::Time start = simulation.now();
  sim::Time deadline = start + sim::hours(24);
  size_t next = 0;
  while (simulation.now() < deadline) {
    while (next < trace.size() &&
           start + trace[next].at <= simulation.now()) {
      const pbs::TraceOp& op = trace[next++];
      if (op.kind == pbs::TraceOp::Kind::kSubmit)
        client.qsub(op.spec, [](std::optional<pbs::SubmitResponse>) {});
    }
    if (next >= trace.size() &&
        server.count_in_state(pbs::JobState::kComplete) >= expected)
      break;
    simulation.run_for(sim::msec(500));
  }
  if (server.count_in_state(pbs::JobState::kComplete) < expected)
    return result;  // stalled: report FAILED rather than a bogus number

  result.makespan_s = (simulation.now() - start).seconds();
  double busy_node_seconds = 0;
  double wait_sum = 0, high_sum = 0;
  int32_t top = 0;
  for (const auto& [id, job] : server.jobs())
    top = std::max(top, job.spec.priority);
  size_t waits = 0, highs = 0;
  for (const auto& [id, job] : server.jobs()) {
    (void)id;
    if (!job.terminal() || job.cancelled) continue;
    busy_node_seconds +=
        (job.end_time - job.start_time).seconds() * job.spec.nodes;
    double wait = (job.start_time - job.submit_time).seconds();
    wait_sum += wait;
    ++waits;
    if (job.spec.priority == top) {
      high_sum += wait;
      ++highs;
    }
  }
  result.utilization =
      busy_node_seconds / (kNodes * std::max(result.makespan_s, 1.0));
  result.mean_wait_s = waits > 0 ? wait_sum / static_cast<double>(waits) : 0;
  result.high_wait_s = highs > 0 ? high_sum / static_cast<double>(highs) : 0;
  const telemetry::Registry& m = simulation.telemetry().metrics();
  if (const auto* b = m.find_counter("pbs.sched.backfilled"))
    result.backfilled = static_cast<double>(b->value);
  if (const auto* p = m.find_counter("pbs.sched.preemptions"))
    result.preemptions = static_cast<double>(p->value);
  result.ok = true;
  return result;
}

pbs::SchedulerConfig make_sched(const std::string& policy, bool exclusive) {
  pbs::SchedulerConfig sched;
  sched.policy = policy;
  sched.selector = "firstfit";
  sched.exclusive_cluster = exclusive;
  // Aging keeps preemption victims from starving (their effective priority
  // climbs until they stop being strictly lower than the preemptor's).
  if (policy == "priority" || policy == "preempt")
    sched.priority_aging = sim::seconds(60);
  return sched;
}

}  // namespace

int main() {
  telemetry::ScenarioReport report;
  report.set_meta("experiment", "E14_scheduler_sweep");
  report.set_meta("seed", std::to_string(kSeed));

  // -- Part A: bursty utilization sweep ----------------------------------
  // ~5 storms of 12 jobs (1-4 nodes, 30 s - 5 min) over 10 minutes: about
  // 5x the cluster's capacity for the trace window, so the drain phase
  // measures packing quality, not idle gaps.
  pbs::WorkloadProfile bursty;
  bursty.kind = pbs::TraceKind::kBursty;
  bursty.duration = sim::minutes(10);
  bursty.mean_interarrival = sim::seconds(20);
  bursty.burst_size = 12;
  bursty.burst_gap = sim::seconds(90);
  std::vector<pbs::TraceOp> bursty_trace = pbs::make_trace(bursty, kSeed);

  std::printf(
      "==================================================================\n"
      "E14 part A: bursty trace (%zu submits, %d nodes), policy sweep\n"
      "==================================================================\n"
      "%-26s %12s %12s %11s\n",
      bursty_trace.size(), kNodes, "policy", "makespan", "utilization",
      "backfills");
  struct Row {
    const char* key;
    const char* label;
    pbs::SchedulerConfig cfg;
  };
  std::vector<Row> rows = {
      {"exclusive", "FIFO + exclusive (paper)", make_sched("fifo", true)},
      {"fifo", "FIFO shared nodes", make_sched("fifo", false)},
      {"backfill", "EASY backfill", make_sched("backfill", false)},
      {"priority", "priority + aging", make_sched("priority", false)},
      {"preempt", "priority + preemption", make_sched("preempt", false)},
  };
  std::map<std::string, TraceResult> bursty_results;
  bool all_ok = true;
  for (const Row& row : rows) {
    TraceResult r = run_trace(row.cfg, bursty_trace);
    bursty_results[row.key] = r;
    if (!r.ok) {
      std::printf("%-26s FAILED (stalled before completing the trace)\n",
                  row.label);
      all_ok = false;
      continue;
    }
    std::printf("%-26s %10.0f s %11.0f%% %11.0f\n", row.label, r.makespan_s,
                r.utilization * 100, r.backfilled);
    std::string prefix = std::string("bursty.") + row.key;
    report.set(prefix + ".makespan_s", r.makespan_s);
    report.set(prefix + ".utilization", r.utilization);
    if (std::string(row.key) == "backfill")
      report.set(prefix + ".backfilled", r.backfilled);
  }

  // The reproduction bar: lifting the paper's restriction must buy >= 1.5x
  // utilization for both the backfill and the priority policy.
  double excl_util = bursty_results["exclusive"].utilization;
  double backfill_gain =
      excl_util > 0 ? bursty_results["backfill"].utilization / excl_util : 0;
  double priority_gain =
      excl_util > 0 ? bursty_results["priority"].utilization / excl_util : 0;
  report.set("bursty.backfill_vs_exclusive_util", backfill_gain);
  report.set("bursty.priority_vs_exclusive_util", priority_gain);
  bool gain_ok = all_ok && backfill_gain >= 1.5 && priority_gain >= 1.5;
  bool backfill_used = bursty_results["backfill"].backfilled > 0;
  std::printf(
      "\nutilization vs FIFO-exclusive: backfill %.2fx, priority %.2fx "
      "(bar: 1.5x): %s\n",
      backfill_gain, priority_gain, gain_ok ? "yes" : "NO");

  // Determinism demo: the same (policy, trace) pair must reproduce the
  // run bit-for-bit -- the whole premise of lifting the restriction.
  TraceResult again = run_trace(make_sched("backfill", false), bursty_trace);
  bool deterministic =
      again.ok && again.makespan_s == bursty_results["backfill"].makespan_s &&
      again.utilization == bursty_results["backfill"].utilization;
  report.set("determinism_ok", deterministic ? 1 : 0);
  std::printf("backfill rerun identical (determinism contract): %s\n",
              deterministic ? "yes" : "NO");

  // -- Part B: mixed-priority responsiveness -----------------------------
  pbs::WorkloadProfile mixed;
  mixed.kind = pbs::TraceKind::kMixedPriority;
  mixed.duration = sim::minutes(10);
  mixed.mean_interarrival = sim::seconds(25);
  mixed.priority_levels = 3;
  std::vector<pbs::TraceOp> mixed_trace = pbs::make_trace(mixed, kSeed + 1);

  std::printf(
      "\n==================================================================\n"
      "E14 part B: mixed-priority trace (%zu submits), high-class wait\n"
      "==================================================================\n"
      "%-26s %14s %14s %11s\n",
      mixed_trace.size(), "policy", "high wait", "mean wait", "preempts");
  std::map<std::string, TraceResult> prio_results;
  for (const char* policy : {"fifo", "priority", "preempt"}) {
    TraceResult r = run_trace(make_sched(policy, false), mixed_trace);
    prio_results[policy] = r;
    if (!r.ok) {
      std::printf("%-26s FAILED\n", policy);
      all_ok = false;
      continue;
    }
    std::printf("%-26s %12.0f s %12.0f s %11.0f\n", policy, r.high_wait_s,
                r.mean_wait_s, r.preemptions);
    std::string prefix = std::string("prio.") + policy;
    report.set(prefix + ".high_wait_s", r.high_wait_s);
    report.set(prefix + ".mean_wait_s", r.mean_wait_s);
  }
  report.set("prio.preempt.preemptions", prio_results["preempt"].preemptions);
  bool prio_ok = prio_results["priority"].ok && prio_results["fifo"].ok &&
                 prio_results["priority"].high_wait_s <
                     prio_results["fifo"].high_wait_s;
  bool preempt_ok = prio_results["preempt"].ok &&
                    prio_results["preempt"].high_wait_s <=
                        prio_results["priority"].high_wait_s &&
                    prio_results["preempt"].preemptions > 0;
  report.set("prio.priority_beats_fifo_ok", prio_ok ? 1 : 0);
  report.set("prio.preempt_beats_priority_ok", preempt_ok ? 1 : 0);
  std::printf(
      "\npriority cuts high-class wait vs FIFO: %s; preemption cuts it "
      "further (with >0 preempts): %s\n",
      prio_ok ? "yes" : "NO", preempt_ok ? "yes" : "NO");

  bool ok = all_ok && gain_ok && backfill_used && deterministic && prio_ok &&
            preempt_ok;
  if (report.write_file("BENCH_scheduler.json"))
    std::printf("wrote BENCH_scheduler.json\n");
  return ok ? 0 : 1;
}
