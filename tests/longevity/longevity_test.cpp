// Stochastic longevity campaigns: multi-simulated-day runs under random
// head failures with rejoin + state transfer, checking the replication
// invariants after every view change and the measured availability against
// the src/ha analytic model (paper Section 5 / Figure 12 methodology).
//
// Seeds are fixed, so every campaign is a deterministic regression test:
// the same binary always sees the same outage schedule, the same command
// stream, and the same digest.
#include <gtest/gtest.h>

#include "ha/availability.h"
#include "harness/scenario.h"

namespace {

using scenariotest::ScenarioOptions;
using scenariotest::ScenarioResult;
using scenariotest::ScenarioRunner;

/// JOSHUA_SCHED / JOSHUA_SELECT already flow in through the SchedulerConfig
/// defaults (scenario.h); what a non-FIFO leg additionally needs is the
/// paper's exclusive-cluster restriction lifted (sharing nodes is the whole
/// point of the other policies) and a workload with priorities and job
/// arrays worth scheduling. Aging keeps preemption victims from starving.
void apply_sched_env(ScenarioOptions& options) {
  if (options.sched.policy == "fifo") return;
  options.sched.exclusive_cluster = false;
  options.sched.priority_aging = sim::minutes(5);
  options.priority_levels = 3;
  options.array_fraction = 0.15;
}

ScenarioOptions campaign_options(sim::Duration duration, uint64_t seed) {
  ScenarioOptions options;
  options.name = "longevity";
  options.heads = 3;
  options.computes = 2;
  // JOSHUA_SHARDS > 1 runs the same campaign against a federated control
  // plane (scenario.h builds a sharded joshua::Cluster behind a
  // fed::Router). Each shard keeps a pair of heads so single-head losses
  // never open a per-shard service gap.
  options.shards = scenariotest::env_int("JOSHUA_SHARDS", 1, 1, 8);
  if (options.shards > 1) {
    options.heads = 2 * options.shards;
    options.computes = 2 * options.shards;
  }
  options.seed = seed;
  options.duration = duration;
  options.command_interval = sim::seconds(30);
  // MTTF 4h / MTTR 2min: ~36 cycles across 3 heads over two days, while
  // keeping outage overlaps rare enough that replicated state survives
  // (the exclusive-cluster scheduler also needs repairs faster than the
  // backlog they create).
  options.mttf = sim::hours(4);
  options.mttr = sim::minutes(2);
  // Back-to-back outages can overlap a flush/merge already in progress;
  // give reconvergence two minutes before calling it a violation.
  options.settle_deadline = sim::seconds(120);
  apply_sched_env(options);
  return options;
}

double analytic_node_availability(const ScenarioOptions& options) {
  return ha::node_availability(
      static_cast<double>(options.mttf.us) / 3.6e9,
      static_cast<double>(options.mttr.us) / 3.6e9);
}

void expect_invariants(const ScenarioResult& result) {
  // Continuity precondition first: if the group ever lost its last live
  // member, state loss downstream is expected and the seed must change.
  EXPECT_EQ(result.service_gap_polls, 0u)
      << "seed precondition: some head must stay in service at all times";
  for (const auto& v : result.violations) ADD_FAILURE() << "invariant: " << v;
  EXPECT_TRUE(result.ok());
}

/// Measured availability must sit inside a band around the analytic value.
/// The band is wide (a two-day sample of an exponential process has real
/// variance) but one-sided bounds still catch a broken injector or a head
/// that never came back: [1 - 4*(1-A), 1 - (1-A)/8].
void expect_availability_band(const ScenarioOptions& options,
                              const ScenarioResult& result) {
  double a_node = analytic_node_availability(options);
  double unavail = 1.0 - a_node;
  EXPECT_GE(result.head_availability_min, 1.0 - 4.0 * unavail)
      << "a head was down far longer than MTTF/MTTR predict";
  EXPECT_LE(result.head_availability_max, 1.0 - unavail / 8.0)
      << "a head saw almost no downtime; the injector did not run";
  // Service availability: with the campaign precondition that the schedule
  // never takes every head down at once, measured service availability must
  // dominate the analytic parallel-redundancy floor computed from the
  // pessimistic edge of the per-head band (Equation 2).
  double floor =
      ha::service_availability(1.0 - 4.0 * unavail, options.heads);
  EXPECT_GE(result.service_availability, floor);
  EXPECT_LE(result.service_availability, 1.0);
}

// The tentpole campaign: >= 2 simulated days, >= 20 failure/rejoin cycles
// across all heads, every invariant checked after every view change, and
// the trace ring deliberately small so the report must disclose truncation.
TEST(Longevity, TwoDayCampaignHoldsInvariants) {
  ScenarioOptions options = campaign_options(sim::hours(48), 20260805);
  options.trace_capacity = 8192;
  ScenarioRunner runner(options);
  ScenarioResult result = runner.run();

  // Campaign shape: enough churn to mean something.
  EXPECT_GE(result.failure_cycles, 20);
  EXPECT_GE(result.view_changes_seen, 20u);
  EXPECT_GE(result.convergence_checks, 20u);
  EXPECT_LT(result.max_concurrent_down, options.heads)
      << "seed precondition: some head must survive every outage overlap";
  EXPECT_GT(result.jsub_accepted, 1000u);
  EXPECT_GT(result.jobs_completed, 1000u);

  expect_invariants(result);
  expect_availability_band(options, result);

  // Truncation disclosure: the 8K ring cannot hold two days of records, so
  // the report must carry the aggregate and at least one per-category count.
  EXPECT_GT(result.report.get("telemetry.trace.dropped_records"), 0.0);
  bool has_category_breakdown = false;
  for (const auto& [name, value] : result.report.values()) {
    if (name.rfind("telemetry.trace.dropped_records.", 0) == 0 && value > 0) {
      has_category_breakdown = true;
      break;
    }
  }
  EXPECT_TRUE(has_category_breakdown)
      << "a truncated campaign must say which trace stream lost records";

  // The report names the run it came from.
  EXPECT_EQ(result.report.meta().at("meta.scenario"), "longevity");
  EXPECT_EQ(result.report.meta().at("meta.seed"), "20260805");
}

// CI-bounded smoke: one simulated day, fixed seed, same invariants. This is
// the version the workflow's regression job runs on every push.
TEST(LongevitySmoke, OneDayCampaign) {
  ScenarioOptions options = campaign_options(sim::hours(24), 7);
  ScenarioRunner runner(options);
  ScenarioResult result = runner.run();

  EXPECT_GE(result.failure_cycles, 10);
  EXPECT_LT(result.max_concurrent_down, options.heads);
  EXPECT_GT(result.jsub_accepted, 500u);
  expect_invariants(result);
  expect_availability_band(options, result);
}

// -- compute-plane campaigns -------------------------------------------------
//
// The head plane stays healthy here; all churn comes from compute-node
// crashes, hangs and segment partitions. JOSHUA_REPLICATION / JOSHUA_COMPUTES
// sweep the replication factor and pool size without recompiling.

ScenarioOptions compute_campaign_options(sim::Duration duration,
                                         uint64_t seed) {
  ScenarioOptions options;
  options.name = "compute_failover";
  options.heads = 3;
  options.computes = scenariotest::env_int("JOSHUA_COMPUTES", 4, 2, 16);
  options.replication = static_cast<uint32_t>(std::min(
      scenariotest::env_int("JOSHUA_REPLICATION", 2, 1, 3), options.computes));
  options.seed = seed;
  options.duration = duration;
  options.random_head_faults = false;
  // Longer jobs than the head campaigns: a fault only matters if it lands
  // while the victim is running something. Keep mean runtime (70 s) under
  // the mean jsub interarrival (100 s) so the FIFO backlog stays bounded.
  options.command_interval = sim::seconds(60);
  options.job_runtime_min = sim::seconds(20);
  options.job_runtime_max = sim::seconds(120);
  // Pooled compute faults: MTTF 1 h over the pool of 4 gives a fault about
  // every 15 simulated minutes, 60/25/15 crash/hang/partition.
  options.random_compute_faults = true;
  options.compute_mttf = sim::hours(1);
  options.compute_mttr = sim::minutes(2);
  // Heartbeat failover on by default; the baseline leg switches it off.
  options.mom_heartbeat = sim::seconds(5);
  options.heartbeat_miss_limit = 3;
  apply_sched_env(options);
  return options;
}

// The acceptance campaign: stochastic compute faults at r = 2 with heartbeat
// failover must lose nothing -- every accepted job completes exactly once,
// no job really executes more than r + excused times, and no head ever sees
// the same completion twice in one service incarnation.
TEST(ComputeFailover, ReplicatedCampaignSurvivesComputeFaults) {
  ScenarioOptions options = compute_campaign_options(sim::hours(12), 20260807);
  ScenarioRunner runner(options);
  ScenarioResult result = runner.run();

  EXPECT_GE(result.compute_fault_count, 20)
      << "seed precondition: the injector must actually exercise the pool";
  EXPECT_GT(result.jsub_accepted, 300u);
  EXPECT_GT(result.jobs_completed, 300u);
  expect_invariants(result);
  EXPECT_EQ(result.jobs_lost, 0u);
  EXPECT_EQ(result.duplicate_completions, 0u);
  EXPECT_EQ(result.report.meta().at("meta.scenario"), "compute_failover");
}

// The paper's accepted failure mode, measured: with r = 1 and no heartbeat,
// a compute-node crash takes its running job with it. The same fault
// schedule that the replicated campaign absorbs must strand work here.
TEST(ComputeFailover, PaperBaselineLosesJobsWithoutReplication) {
  ScenarioOptions options = compute_campaign_options(sim::hours(12), 20260807);
  options.replication = 1;
  options.mom_heartbeat = sim::kDurationZero;  // paper behaviour: no failover
  options.tolerate_lost_jobs = true;
  ScenarioRunner runner(options);
  ScenarioResult result = runner.run();

  EXPECT_GE(result.compute_fault_count, 20);
  expect_invariants(result);
  EXPECT_GT(result.jobs_lost, 0u)
      << "an unreplicated compute plane under this fault schedule must lose "
         "jobs -- if it does not, the injector or the baseline broke";
  EXPECT_EQ(result.duplicate_completions, 0u);
}

// CI-bounded smoke: six hours of compute churn, run by the workflow's
// regression job under both ordering engines.
TEST(ComputeFailoverSmoke, SixHourCampaign) {
  ScenarioOptions options = compute_campaign_options(sim::hours(6), 11);
  ScenarioRunner runner(options);
  ScenarioResult result = runner.run();

  EXPECT_GE(result.compute_fault_count, 8);
  expect_invariants(result);
  EXPECT_EQ(result.jobs_lost, 0u);
  EXPECT_EQ(result.duplicate_completions, 0u);
}

// Compute-fault campaigns must be as reproducible as head-fault ones: the
// digest folds in every counter, so one flipped completion shows up here.
TEST(ComputeFailoverDeterminism, SameSeedBitIdentical) {
  ScenarioOptions options = compute_campaign_options(sim::hours(3), 5);
  ScenarioResult first = ScenarioRunner(options).run();
  ScenarioResult second = ScenarioRunner(options).run();
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.compute_fault_count, second.compute_fault_count);
  EXPECT_EQ(first.jobs_completed, second.jobs_completed);
  EXPECT_EQ(first.jobs_lost, second.jobs_lost);
}

// Determinism guard: the same seed must reproduce the campaign bit-for-bit
// (event count, command outcomes, outage schedule, every counter), and a
// different seed must not.
TEST(LongevityDeterminism, SameSeedBitIdenticalDifferentSeedNot) {
  ScenarioOptions options = campaign_options(sim::hours(6), 42);

  ScenarioResult first = ScenarioRunner(options).run();
  ScenarioResult second = ScenarioRunner(options).run();
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.jsub_accepted, second.jsub_accepted);
  EXPECT_EQ(first.failure_cycles, second.failure_cycles);
  EXPECT_EQ(first.service_downtime.us, second.service_downtime.us);

  ScenarioOptions other = campaign_options(sim::hours(6), 43);
  ScenarioResult third = ScenarioRunner(other).run();
  EXPECT_NE(first.digest, third.digest);
}

}  // namespace
