// Every registry counter is the sum of the per-instance counts that fed it.
// A component's own number (stats(), a counter's count()) and the registry
// total come from the same Counter::add call; these runs check that no
// instance counts an event the registry misses, or the other way round,
// across a head crash and rejoin and across a federated plane.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fed/router.h"
#include "joshua/joshua_harness.h"

namespace {

using namespace joshuatest;
using Sums = std::map<std::string, uint64_t>;

void add_group(Sums& sums, const gcs::GroupMember& g) {
  const gcs::GroupMember::Telemetry& t = g.stats();
  sums["gcs.data_sent"] += t.data_sent.count();
  sums["gcs.data_received"] += t.data_received.count();
  sums["gcs.nacks_sent"] += t.nacks_sent.count();
  sums["gcs.retransmits_served"] += t.retransmits_served.count();
  sums["gcs.delivered"] += t.delivered.count();
  sums["gcs.views_installed"] += t.views_installed.count();
  sums["gcs.cuts_sent"] += t.cuts_sent.count();
  sums["gcs.engine_msgs_sent"] += t.engine_msgs_sent.count();
  sums["gcs.token.rotations"] += t.token_rotations.count();
  sums["gcs.window_stalls"] += t.window_stalls.count();
  const std::string& scope = g.config().telemetry_scope;
  if (!scope.empty())
    sums["gcs." + scope + ".delivered"] += t.scope_delivered.count();
}

void add_head(Sums& sums, joshua::Cluster& cluster, size_t head) {
  const joshua::Server& server = cluster.joshua_server(head);
  add_group(sums, server.group());
  const rsm::Telemetry& core = server.core_stats();
  sums["joshua.commands_intercepted"] += core.ordered.count();
  sums["pbs.jstat_local"] += core.local_reads.count();
  const joshua::Server::Telemetry& j = server.stats();
  sums["joshua.commands_executed"] += j.commands_executed.count();
  sums["joshua.replays_applied"] += j.replays_applied.count();
  sums["joshua.mutex_grants"] += j.mutex_grants.count();
  sums["joshua.mutex_denials"] += j.mutex_denials.count();
  sums["joshua.mutex_revokes"] += j.mutex_revokes.count();
  sums["joshua.dup_completions_suppressed"] +=
      j.dup_completions_suppressed.count();
  sums["joshua.ordered_completions"] += j.ordered_completions.count();
  sums["joshua.preempts_ordered"] += j.preempts_ordered.count();
  sums["joshua.reports_rejected"] += j.reports_rejected.count();
  sums["joshua.replay_divergence." +
       cluster.net().host(cluster.head_hosts()[head]).name()] +=
      j.replay_divergence.count();
  sums["joshua.shard_rejects"] += j.shard_rejects.count();
  const pbs::Server::Telemetry& p = cluster.pbs_server(head).stats();
  sums["pbs.jobs_queued"] += p.jobs_queued.count();
  sums["pbs.jobs_launched"] += p.jobs_launched.count();
  sums["pbs.jobs_completed"] += p.jobs_completed.count();
  sums["pbs.sched_cycles"] += p.sched_cycles.count();
  sums["pbs.replicas_dispatched"] += p.replicas_dispatched.count();
  sums["pbs.replicas_reaped"] += p.replicas_reaped.count();
  sums["pbs.reports_suppressed"] += p.reports_suppressed.count();
  sums["pbs.jobs_requeued"] += p.jobs_requeued.count();
  sums["pbs.heartbeat_misses"] += p.heartbeat_misses.count();
  sums["pbs.node_failovers"] += p.node_failovers.count();
  sums["pbs.node_recoveries"] += p.node_recoveries.count();
  sums["pbs.sched.preemptions"] += p.preemptions.count();
  sums["pbs.sched.backfilled"] += p.backfilled.count();
  sums["pbs.sched.array_expansions"] += p.array_expansions.count();
}

Sums head_sums(joshua::Cluster& cluster) {
  Sums sums;
  for (size_t h = 0; h < cluster.head_count(); ++h) add_head(sums, cluster, h);
  return sums;
}

void add_router(Sums& sums, const fed::Router& router) {
  const fed::Router::Telemetry& r = router.stats();
  sums["fed.routed"] += r.routed.count();
  sums["fed.fanouts"] += r.fanouts.count();
  sums["fed.fanout_reads"] += r.fanout_reads.count();
  sums["fed.rejects"] += r.rejects.count();
  sums["fed.mass_deleted"] += r.mass_deleted.count();
}

/// Every registered counter of the checked layers equals its sum (0 when no
/// instance above reports it), and every summed name is registered.
void expect_sums_match(const telemetry::Registry& m, const Sums& sums) {
  for (const auto& cell : m.counters()) {
    bool checked = false;
    for (const char* layer : {"gcs.", "joshua.", "rsm.", "fed.", "pbs."})
      checked = checked || cell.name.starts_with(layer);
    if (!checked) continue;
    auto it = sums.find(cell.name);
    EXPECT_EQ(it == sums.end() ? 0u : it->second, cell.value) << cell.name;
  }
  for (const auto& [name, sum] : sums)
    EXPECT_NE(m.find_counter(name), nullptr) << name << " sums " << sum;
}

uint64_t registry_value(const telemetry::Registry& m, const char* name) {
  const auto* cell = m.find_counter(name);
  return cell == nullptr ? 0 : cell->value;
}

TEST(CounterSums, ThreeHeadsAcrossCrashAndRejoin) {
  joshua::ClusterOptions options = fast_options(3, 2);
  options.jstat_local = true;
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId first = jsub_sync(cluster, client, quick_job());
  ASSERT_NE(first, pbs::kInvalidJob);
  ASSERT_TRUE(wait_state_everywhere(cluster, first, pbs::JobState::kComplete));
  ASSERT_NE(jsub_sync(cluster, client, quick_job(sim::seconds(600))),
            pbs::kInvalidJob);

  cluster.net().crash_host(cluster.head_hosts()[2]);
  ASSERT_TRUE(cluster.run_until_converged());
  ASSERT_NE(jsub_sync(cluster, client, quick_job(sim::seconds(600))),
            pbs::kInvalidJob);
  bool stat_done = false;
  client.jstat(pbs::StatRequest{}, [&](auto) { stat_done = true; });
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] { return stat_done; }));
  cluster.net().restart_host(cluster.head_hosts()[2]);
  cluster.joshua_server(2).start();
  ASSERT_TRUE(cluster.run_until_converged(sim::seconds(60)));
  cluster.sim().run_for(sim::seconds(5));

  const telemetry::Registry& m = cluster.sim().telemetry().metrics();
  expect_sums_match(m, head_sums(cluster));
  // The run exercised what it claims to: ordering, a view change, a replay
  // transfer to the rejoined head, jmutex arbitration and local reads.
  EXPECT_GT(registry_value(m, "gcs.data_sent"), 0u);
  EXPECT_GT(registry_value(m, "gcs.views_installed"), 3u);
  EXPECT_GT(registry_value(m, "joshua.replays_applied"), 0u);
  EXPECT_GT(registry_value(m, "joshua.mutex_grants"), 0u);
  EXPECT_GT(registry_value(m, "pbs.jstat_local"), 0u);
  EXPECT_GT(registry_value(m, "pbs.jobs_completed"), 0u);
}

TEST(CounterSums, TwoShardFederationThroughRouter) {
  joshua::ClusterOptions options = fast_options(4, 2);
  options.shards.count = 2;
  options.shards.queues = {{"batch*"}, {"*"}};
  joshua::Cluster f(options);
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router router(f);

  int answered = 0;
  for (const char* queue : {"batch", "debug", "batch", "debug"}) {
    pbs::JobSpec spec = quick_job(sim::seconds(600));
    spec.queue = queue;
    router.jsub(spec, [&](auto) { ++answered; });
  }
  ASSERT_TRUE(testutil::run_until(f.sim(), [&] { return answered == 4; }));
  router.jstat(pbs::StatRequest{}, [&](auto) { ++answered; });
  router.jdel(router.layout().first_id(2) + 7, [&](auto) { ++answered; });
  router.jdel_all([&](auto) { ++answered; });
  ASSERT_TRUE(testutil::run_until(
      f.sim(), [&] { return answered == 7; }, sim::seconds(120)));
  f.sim().run_for(sim::seconds(5));

  Sums sums = head_sums(f);
  add_router(sums, router);
  const telemetry::Registry& m = f.sim().telemetry().metrics();
  expect_sums_match(m, sums);
  EXPECT_GT(registry_value(m, "gcs.shard0.delivered"), 0u);
  EXPECT_GT(registry_value(m, "gcs.shard1.delivered"), 0u);
  EXPECT_GT(registry_value(m, "fed.fanout_reads"), 0u);
  EXPECT_EQ(registry_value(m, "fed.rejects"), 1u);
  EXPECT_GT(registry_value(m, "fed.mass_deleted"), 0u);
}

}  // namespace
