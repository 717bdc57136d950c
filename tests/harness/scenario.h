// Parameterized scenario runner: one object that composes a joshua::Cluster,
// its sim::FailureInjector, and a seeded jsub/jdel/jstat workload into a
// long-running campaign with invariant checking.
//
// The runner drives the cluster in poll-sized slices. Each slice it
//   * restarts JOSHUA service on heads whose host came back (the injector
//     restarts the host; rejoining the group is the operator action the
//     paper describes, so the harness performs it explicitly),
//   * folds newly terminal jobs into the completed-job ledger,
//   * and, whenever the group view epoch advanced, waits for the surviving
//     heads to reconverge and re-checks the replication invariants.
//
// Invariants (violations are collected, not thrown, so a campaign reports
// everything that went wrong in one run):
//   1. exactly-once launch -- no job id is really executed by more than one
//      mom launch attempt (jmutex's guarantee, paper Section 4);
//   2. zero replay divergence -- every "joshua.replay_divergence.*" counter
//      stays 0 (a rejoined head's rebuilt state never drifts);
//   3. convergence after every view change -- live heads reach identical
//      live-job tables within a bounded settle time;
//   4. no job accepted-then-lost -- every jsub the client got an OK for is
//      eventually terminal or still live on the surviving heads.
//
// Everything (workload arrivals, command mix, fault schedule) draws from the
// simulation RNG, so a ScenarioOptions value + seed fully determines the run
// and ScenarioResult::digest is bit-stable across runs of the same binary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fed/router.h"
#include "ha/availability.h"
#include "joshua/cluster.h"
#include "joshua/config_file.h"
#include "pbs/workload.h"
#include "telemetry/scenario_report.h"
#include "testutil.h"
#include "util/strings.h"

namespace scenariotest {

/// Harness-only sweep knob, read like joshua::apply_env's: unset or empty
/// means `fallback`; anything but an integer in [lo, hi] throws
/// jutil::ConfigError naming the variable.
inline int env_int(const char* name, int fallback, int lo, int hi,
                   const joshua::EnvLookup& lookup) {
  const char* v = lookup(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::optional<int> parsed = jutil::parse_num<int>(v);
  if (!parsed || *parsed < lo || *parsed > hi)
    throw jutil::ConfigError(std::string(name) + ": expected an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "], got '" + v + "'");
  return *parsed;
}

/// The campaign sweeps: CI varies the shard count (JOSHUA_SHARDS), the
/// compute pool (JOSHUA_COMPUTES) and the replication factor
/// (JOSHUA_REPLICATION, capped at the pool) without recompiling.
inline int env_shards(const joshua::EnvLookup& lookup = std::getenv) {
  return env_int("JOSHUA_SHARDS", 1, 1, 8, lookup);
}
inline int env_computes(const joshua::EnvLookup& lookup = std::getenv) {
  return env_int("JOSHUA_COMPUTES", 4, 2, 16, lookup);
}
inline uint32_t env_replication(int computes,
                                const joshua::EnvLookup& lookup = std::getenv) {
  return static_cast<uint32_t>(
      std::min(env_int("JOSHUA_REPLICATION", 2, 1, 3, lookup), computes));
}

struct ScenarioOptions {
  std::string name = "scenario";
  int heads = 3;
  int computes = 2;
  /// Federated control plane: partition heads/computes into this many
  /// independent ordering groups behind a fed::Router (heads and computes
  /// must split evenly). 1 = the monolithic cluster, today's behaviour. Campaigns read
  /// JOSHUA_SHARDS (like JOSHUA_REPLICATION / JOSHUA_COMPUTES) so CI can
  /// sweep the shard count without recompiling.
  int shards = 1;
  uint64_t seed = 1;
  joshua::TransferMode transfer = joshua::TransferMode::kReplay;
  /// Total-order engine for the replication group.
  gcs::OrderingMode ordering = testutil::env_options().ordering;

  /// Simulated campaign length (workload + fault injection window).
  sim::Duration duration = sim::hours(6);

  // -- workload --------------------------------------------------------------
  /// Mean command interarrival (exponential).
  sim::Duration command_interval = sim::seconds(30);
  /// Relative command mix.
  int jsub_weight = 6;
  int jdel_weight = 2;
  int jstat_weight = 2;
  /// Actual job runtimes are uniform in [min, max]. The default scheduler
  /// is the paper's exclusive-cluster FIFO (one job at a time), so the mean
  /// runtime must stay below the mean jsub interarrival or the backlog
  /// grows without bound.
  sim::Duration job_runtime_min = sim::seconds(5);
  sim::Duration job_runtime_max = sim::seconds(60);

  // -- scheduling ------------------------------------------------------------
  /// Policy/selector pair, driven identically through every head (the
  /// determinism contract). The default honours JOSHUA_SCHED /
  /// JOSHUA_SELECT, so campaigns sweep policies from the environment without
  /// recompiling (like JOSHUA_REPLICATION).
  pbs::SchedulerConfig sched = testutil::env_options().sched;
  /// Mixed-priority workload: jsub draws a priority uniformly from
  /// [0, priority_levels). <= 1 submits everything at the default priority.
  uint32_t priority_levels = 1;
  /// Fraction of jsubs submitted as job arrays, and the width range.
  double array_fraction = 0.0;
  uint32_t max_array = 4;
  /// When set, the workload is a pre-generated trace from the workload
  /// engine (pbs::make_trace(*trace, seed)) instead of the RNG-scheduled
  /// command mix above: the exact same operation sequence replays under
  /// every (policy, selector) combination, so a sweep compares schedulers,
  /// not workloads. The trace's own duration is clamped to `duration`.
  std::optional<pbs::WorkloadProfile> trace;

  // -- fault schedule --------------------------------------------------------
  /// Drive every head through an exponential fail/repair process. Computes
  /// and the login node are never failed (the paper's experiments target
  /// head-node availability).
  bool random_head_faults = true;
  sim::Duration mttf = sim::hours(2);
  sim::Duration mttr = sim::minutes(5);

  // -- compute plane ---------------------------------------------------------
  /// Replication factor stamped on every submitted job: the scheduler
  /// dispatches each job to `replication` distinct compute nodes
  /// (anti-affinity), first to finish wins.
  uint32_t replication = 1;
  /// Mom heartbeat detection at every PBS server; zero = off (the paper's
  /// behaviour: a failed compute node takes its job with it).
  sim::Duration mom_heartbeat = sim::kDurationZero;
  uint32_t heartbeat_miss_limit = 3;
  /// Stochastic compute faults over the whole pool (crash-heavy mix of
  /// crashes, hangs and segment partitions; see
  /// sim::FailureInjector::random_compute_faults).
  bool random_compute_faults = false;
  sim::Duration compute_mttf = sim::hours(6);
  sim::Duration compute_mttr = sim::minutes(1);
  /// Paper-baseline leg (r = 1, heartbeat off): compute failures
  /// legitimately strand accepted jobs. Count them in jobs_lost instead of
  /// flagging accepted-then-lost violations.
  bool tolerate_lost_jobs = false;

  // -- timing / bookkeeping --------------------------------------------------
  /// Coarser gcs timers than the sub-second defaults: a multi-day campaign
  /// would otherwise spend most of its events on heartbeats.
  sim::Duration gcs_heartbeat = sim::msec(500);
  sim::Duration gcs_suspect = sim::seconds(2);
  sim::Duration gcs_flush = sim::seconds(8);
  /// Main-loop slice; also the rejoin-driver reaction time.
  sim::Duration poll_interval = sim::seconds(10);
  /// How long surviving heads get to reconverge after a view change before
  /// invariant 3 counts as violated.
  sim::Duration settle_deadline = sim::seconds(60);
  /// Post-campaign grace for queued jobs to drain before the final
  /// accepted-then-lost audit.
  sim::Duration drain_deadline = sim::minutes(30);
  /// Trace-ring capacity override; 0 keeps the library default. Longevity
  /// runs set this small on purpose so the ring wraps and the report must
  /// disclose the truncation.
  size_t trace_capacity = 0;
};

struct ScenarioResult {
  /// FNV-1a fold of the run's observable behaviour (event count, command
  /// outcomes, outage schedule, every metric counter). Two runs of the same
  /// binary with equal options produce equal digests.
  uint64_t digest = 0;

  int failure_cycles = 0;  ///< crash/restart pairs scheduled on heads
  int compute_fault_count = 0;  ///< compute faults scheduled (crash/hang/part)
  int max_concurrent_down = 0;
  uint64_t view_changes_seen = 0;
  uint64_t convergence_checks = 0;

  /// Polls at which some ordering group (shard) had NO head in service.
  /// Replicated state only survives while at least one member of its group
  /// lives; a nonzero value here means the campaign broke the continuity
  /// precondition and job-loss "violations" are expected, not bugs.
  /// Campaign seeds are chosen so this stays 0.
  uint64_t service_gap_polls = 0;

  uint64_t jsub_attempted = 0;
  uint64_t jsub_accepted = 0;
  uint64_t jdel_attempted = 0;
  uint64_t jdel_ok = 0;
  uint64_t jstat_attempted = 0;
  uint64_t jstat_ok = 0;
  uint64_t commands_failed = 0;  ///< no head answered within the timeout
  uint64_t client_failovers = 0;
  uint64_t jobs_completed = 0;  ///< distinct accepted ids seen terminal
  /// Accepted jobs never seen terminal by the end of the drain. Only
  /// populated when tolerate_lost_jobs is set (the r = 1, heartbeat-off
  /// baseline); otherwise losses surface as violations instead.
  uint64_t jobs_lost = 0;
  /// Terminal transitions observed twice for one job at one head within a
  /// single service incarnation. Always a violation when nonzero.
  uint64_t duplicate_completions = 0;

  std::vector<std::string> violations;

  double head_availability_min = 1.0;
  double head_availability_max = 1.0;
  double service_availability = 1.0;  ///< >= 1 head host up
  sim::Duration service_downtime{0};

  uint64_t events_executed = 0;
  sim::Time end_time{0};

  telemetry::ScenarioReport report;

  bool ok() const { return violations.empty(); }
};

/// Command entry point: a joshua::Client on the login node (one shard) or a
/// fed::Router fronting every shard. Same jsub/jstat/jdel surface. One shard
/// keeps the plain client: a router's fed.* counters would enter the digest.
struct Issuer {
  joshua::Client* client = nullptr;
  std::unique_ptr<fed::Router> router;
  void jsub(pbs::JobSpec spec,
            std::function<void(std::optional<pbs::SubmitResponse>)> done) {
    client ? client->jsub(std::move(spec), std::move(done))
           : router->jsub(std::move(spec), std::move(done));
  }
  void jstat(pbs::StatRequest req,
             std::function<void(std::optional<pbs::StatResponse>)> done) {
    client ? client->jstat(std::move(req), std::move(done))
           : router->jstat(std::move(req), std::move(done));
  }
  void jdel(pbs::JobId id,
            std::function<void(std::optional<pbs::SimpleResponse>)> done) {
    client ? client->jdel(id, std::move(done))
           : router->jdel(id, std::move(done));
  }
  uint64_t failovers() const {
    if (client) return client->failovers();
    return router ? router->failovers() : 0;
  }
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions options)
      : options_(std::move(options)) {
    // The environment's batch/window; ordering and sched come from options_.
    joshua::ClusterOptions copt = testutil::env_options();
    copt.head_count = options_.heads;
    copt.compute_count = options_.computes;
    copt.cal = sim::fast_calibration();
    copt.seed = options_.seed;
    copt.transfer = options_.transfer;
    copt.gcs_heartbeat = options_.gcs_heartbeat;
    copt.gcs_suspect = options_.gcs_suspect;
    copt.gcs_flush = options_.gcs_flush;
    copt.ordering = options_.ordering;
    copt.mom_heartbeat = options_.mom_heartbeat;
    copt.heartbeat_miss_limit = options_.heartbeat_miss_limit;
    copt.sched = options_.sched;
    copt.shards.count = options_.shards;
    cluster_ = std::make_unique<joshua::Cluster>(copt);
    if (options_.trace_capacity != 0)
      cluster_->sim().telemetry().trace().set_capacity(options_.trace_capacity);

    // Duplicate-completion watch: chain behind JOSHUA's own hook (installed
    // in the Server ctor) so both run. A head legitimately re-derives
    // completions after a crash + replay, so the per-head ledger is cleared
    // on every service (re)start -- see rejoin_restarted_heads.
    completed_per_head_.resize(cluster_->head_count());
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      auto& server = cluster_->pbs_server(i);
      auto previous = std::move(server.on_job_complete);
      server.on_job_complete = [this, i, previous](const pbs::Job& job) {
        if (!completed_per_head_[i].insert(job.id).second)
          ++duplicate_completions_;
        if (previous) previous(job);
      };
    }
  }

  joshua::Cluster& cluster() { return *cluster_; }

  ScenarioResult run() {
    ScenarioResult result;
    joshua::Cluster& cluster = *cluster_;
    sim::Simulation& sim = cluster.sim();

    cluster.start();
    if (!cluster.run_until_converged(sim::seconds(60)))
      result.violations.push_back("initial convergence failed");

    // The whole fault schedule is drawn up front (random_failures scripts
    // every crash/restart pair immediately), so the concurrency profile of
    // the campaign is known before any command runs.
    if (options_.random_head_faults) {
      sim::Time until = sim.now() + options_.duration;
      for (sim::HostId head : cluster.head_hosts()) {
        result.failure_cycles += cluster.faults().random_failures(
            head, options_.mttf, options_.mttr, until);
      }
    }
    if (options_.random_compute_faults) {
      sim::Time until = sim.now() + options_.duration;
      result.compute_fault_count = cluster.faults().random_compute_faults(
          cluster.compute_hosts(), options_.compute_mttf,
          options_.compute_mttr, until);
    }
    result.max_concurrent_down = max_concurrent_down();

    if (cluster.shard_count() > 1)
      issuer_.router = std::make_unique<fed::Router>(cluster);
    else
      issuer_.client = &cluster.make_jclient();
    if (options_.trace.has_value()) {
      pbs::WorkloadProfile profile = *options_.trace;
      profile.duration = std::min(profile.duration, options_.duration);
      for (const pbs::TraceOp& op : pbs::make_trace(profile, options_.seed))
        sim.schedule(op.at, [this, op] { issue_trace_op(op); });
    } else {
      schedule_next_command();
    }

    // -- main campaign loop --------------------------------------------------
    sim::Time end = sim.now() + options_.duration;
    uint64_t last_epoch = current_epoch();
    while (sim.now() < end) {
      sim.run_for(std::min(options_.poll_interval, end - sim.now()));
      rejoin_restarted_heads();
      harvest_terminal_jobs();
      if (some_shard_unserved()) ++result.service_gap_polls;
      uint64_t epoch = current_epoch();
      if (epoch != last_epoch) {
        last_epoch = epoch;
        ++result.view_changes_seen;
        check_after_view_change(result, epoch);
        last_epoch = current_epoch();  // settle may have advanced it
      }
    }

    // -- drain ---------------------------------------------------------------
    // All scripted restarts land by `end`; bring every head back, then give
    // queued work a bounded window to finish before the final audit.
    workload_done_ = true;
    sim::Time drain_end = sim.now() + options_.drain_deadline;
    while (sim.now() < drain_end) {
      rejoin_restarted_heads();
      sim.run_for(options_.poll_interval);
      harvest_terminal_jobs();
      if (all_heads_in_service() && all_accepted_settled()) break;
    }
    cluster.run_until_converged(sim::seconds(60));
    harvest_terminal_jobs();

    finalize(result);
    return result;
  }

 private:
  // -- workload --------------------------------------------------------------

  void schedule_next_command() {
    sim::Simulation& sim = cluster_->sim();
    auto delay = sim::Duration{static_cast<int64_t>(sim.rng().exponential(
        static_cast<double>(options_.command_interval.us)))};
    if (delay.us < 1) delay = sim::usec(1);
    sim.schedule(delay, [this] {
      if (!workload_done_) {
        issue_command();
        schedule_next_command();
      }
    });
  }

  void issue_command() {
    jutil::Rng& rng = cluster_->sim().rng();
    int total =
        options_.jsub_weight + options_.jdel_weight + options_.jstat_weight;
    int pick = static_cast<int>(rng.next_u64(static_cast<uint64_t>(total)));
    if (pick < options_.jsub_weight || live_ids_.empty()) {
      issue_jsub();
    } else if (pick < options_.jsub_weight + options_.jdel_weight) {
      issue_jdel();
    } else {
      issue_jstat();
    }
  }

  void issue_jsub() {
    ++tally_.jsub_attempted;
    pbs::JobSpec spec;
    spec.name = "campaign";
    spec.replicas = options_.replication;
    jutil::Rng& rng = cluster_->sim().rng();
    spec.run_time = sim::Duration{rng.uniform(options_.job_runtime_min.us,
                                              options_.job_runtime_max.us)};
    spec.walltime = spec.run_time * 4;
    if (options_.priority_levels > 1)
      spec.priority =
          static_cast<int32_t>(rng.next_u64(options_.priority_levels));
    if (options_.array_fraction > 0.0 && options_.max_array > 1 &&
        rng.chance(options_.array_fraction))
      spec.array_count =
          static_cast<uint32_t>(rng.uniform(2, options_.max_array));
    issuer_.jsub(std::move(spec),
                  [this](std::optional<pbs::SubmitResponse> r) {
                    note_submit_response(r, /*trace_index=*/-1);
                  });
  }

  /// Shared jsub bookkeeping. One accepted array submit enters `count`
  /// consecutive ids: every sub-job owes the accepted-then-lost audit a
  /// terminal state of its own. `trace_index` maps a trace submit to its
  /// base job id so later trace stats/cancels can target it.
  void note_submit_response(const std::optional<pbs::SubmitResponse>& r,
                            int64_t trace_index) {
    if (r && r->status == pbs::Status::kOk &&
        r->job_id != pbs::kInvalidJob) {
      ++tally_.jsub_accepted;
      if (trace_index >= 0) trace_ids_[trace_index] = r->job_id;
      uint32_t n = r->count > 1 ? r->count : 1;
      for (uint32_t k = 0; k < n; ++k) {
        accepted_order_.push_back(r->job_id + k);
        accepted_.insert(r->job_id + k);
        live_ids_.push_back(r->job_id + k);
      }
    } else {
      ++tally_.commands_failed;
    }
  }

  /// Trace playback: the op stream is fixed up front; only the mapping from
  /// trace submit index to real job id is discovered at run time.
  void issue_trace_op(const pbs::TraceOp& op) {
    if (workload_done_) return;
    switch (op.kind) {
      case pbs::TraceOp::Kind::kSubmit: {
        ++tally_.jsub_attempted;
        pbs::JobSpec spec = op.spec;
        spec.replicas = options_.replication;
        int64_t index = op.target;
        issuer_.jsub(std::move(spec),
                     [this, index](std::optional<pbs::SubmitResponse> r) {
                       note_submit_response(r, index);
                     });
        break;
      }
      case pbs::TraceOp::Kind::kStat: {
        ++tally_.jstat_attempted;
        pbs::StatRequest req;  // default: the whole queue
        if (auto it = trace_ids_.find(op.target); it != trace_ids_.end())
          req = pbs::StatRequest{it->second, true};
        issuer_.jstat(req, [this](std::optional<pbs::StatResponse> r) {
          if (r)
            ++tally_.jstat_ok;
          else
            ++tally_.commands_failed;
        });
        break;
      }
      case pbs::TraceOp::Kind::kCancel: {
        auto it = trace_ids_.find(op.target);
        if (it == trace_ids_.end()) return;  // submit never acknowledged
        ++tally_.jdel_attempted;
        issuer_.jdel(it->second, [this](std::optional<pbs::SimpleResponse> r) {
          if (r && r->status == pbs::Status::kOk)
            ++tally_.jdel_ok;
          else
            ++tally_.commands_failed;
        });
        break;
      }
    }
  }

  void issue_jdel() {
    ++tally_.jdel_attempted;
    jutil::Rng& rng = cluster_->sim().rng();
    size_t ix = static_cast<size_t>(rng.next_u64(live_ids_.size()));
    pbs::JobId id = live_ids_[ix];
    live_ids_.erase(live_ids_.begin() + static_cast<std::ptrdiff_t>(ix));
    issuer_.jdel(id, [this](std::optional<pbs::SimpleResponse> r) {
      if (r && r->status == pbs::Status::kOk)
        ++tally_.jdel_ok;
      else
        ++tally_.commands_failed;
    });
  }

  void issue_jstat() {
    ++tally_.jstat_attempted;
    jutil::Rng& rng = cluster_->sim().rng();
    pbs::StatRequest req;
    req.job_id = live_ids_[static_cast<size_t>(rng.next_u64(live_ids_.size()))];
    issuer_.jstat(req, [this](std::optional<pbs::StatResponse> r) {
      if (r)
        ++tally_.jstat_ok;
      else
        ++tally_.commands_failed;
    });
  }

  // -- drivers and bookkeeping -----------------------------------------------

  /// The injector restarts crashed hosts on schedule; re-entering the head
  /// group is the explicit operator step. GroupMember::join() no-ops while a
  /// join is already in flight, so calling every poll is safe.
  void rejoin_restarted_heads() {
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      if (!cluster_->net().host(cluster_->head_hosts()[i]).up()) continue;
      if (cluster_->joshua_server(i).in_service()) continue;
      // The restarting head re-derives completions from its replayed log;
      // those are a fresh incarnation, not protocol duplicates.
      completed_per_head_[i].clear();
      cluster_->joshua_server(i).start();
    }
  }

  /// Union, over time and heads, of job ids observed terminal. Replay-mode
  /// joiners legitimately lack completed-job history, so "was it ever seen
  /// finished anywhere" is the right ledger for the accepted-then-lost
  /// audit, not any single head's table.
  void harvest_terminal_jobs() {
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      if (!cluster_->net().host(cluster_->head_hosts()[i]).up()) continue;
      if (!cluster_->joshua_server(i).in_service()) continue;
      for (const auto& [id, job] : cluster_->pbs_server(i).jobs()) {
        if (job.terminal()) completed_seen_.insert(id);
      }
    }
    std::erase_if(live_ids_, [this](pbs::JobId id) {
      return completed_seen_.count(id) != 0;
    });
  }

  /// View-change detector: per ordering group the max epoch any in-service
  /// member holds, summed across groups (each shard's membership advances
  /// independently; a sum moves whenever any group reforms).
  uint64_t current_epoch() const {
    std::map<uint32_t, uint64_t> group_epoch;
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      const auto& server = cluster_->joshua_server(i);
      if (!server.in_service()) continue;
      uint64_t& e = group_epoch[cluster_->shard_of_head(i)];
      e = std::max(e, server.group().view().id.epoch);
    }
    uint64_t sum = 0;
    for (const auto& [g, e] : group_epoch) sum += e;
    return sum;
  }

  bool all_heads_in_service() const {
    return in_service_count() == cluster_->head_count();
  }

  /// Does some ordering group have no head in service?
  bool some_shard_unserved() const {
    std::vector<size_t> serving(cluster_->shard_count(), 0);
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      if (cluster_->joshua_server(i).in_service())
        ++serving[cluster_->shard_of_head(i)];
    }
    return std::find(serving.begin(), serving.end(), 0u) != serving.end();
  }

  size_t in_service_count() const {
    size_t n = 0;
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      if (cluster_->joshua_server(i).in_service()) ++n;
    }
    return n;
  }

  /// One-line per-head snapshot for violation messages: up/down, in/out of
  /// service, view epoch, and live-job count.
  std::string heads_snapshot() const {
    std::string out;
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      bool up = cluster_->net().host(cluster_->head_hosts()[i]).up();
      const auto& server = cluster_->joshua_server(i);
      size_t live = 0, table = 0;
      std::string ids;
      if (up && server.in_service()) {
        for (const auto& [id, job] : cluster_->pbs_server(i).jobs()) {
          ++table;
          if (job.terminal()) continue;
          ++live;
          if (live <= 8) {
            if (!ids.empty()) ids += ',';
            ids += std::to_string(id) + ":s" +
                   std::to_string(static_cast<int>(job.state)) +
                   (job.cancelled ? "c" : "");
          }
        }
      }
      std::string members;
      if (up && server.in_service()) {
        for (gcs::MemberId m : server.group().view().members) {
          if (!members.empty()) members += ',';
          members += std::to_string(m);
        }
      }
      if (!out.empty()) out += ' ';
      out += "head" + std::to_string(i) + "(" + (up ? "up" : "DOWN") + "," +
          (server.in_service()
                  ? std::string(server.replaying() ? "RPLY," : "svc,") + "e" +
                        std::to_string(server.group().view().id.epoch) +
                        "{" + members + "}" +
                        ",n=" + std::to_string(table) +
                        ",live=" + std::to_string(live) +
                        (ids.empty() ? "" : "[" + ids + "]")
                  : "out") +
             ")";
    }
    return out;
  }

  bool all_accepted_settled() const {
    return live_ids_.empty();
  }

  /// Invariant 3 (+ a scan of 1): after a view change the surviving heads
  /// must reach identical live-job tables within settle_deadline. Another
  /// view change superseding this one aborts the wait (the next poll
  /// iteration picks it up).
  void check_after_view_change(ScenarioResult& result, uint64_t epoch) {
    bool settled = testutil::run_until(
        cluster_->sim(),
        [&] {
          rejoin_restarted_heads();
          if (current_epoch() != epoch) return true;  // superseded
          return group_stable() && heads_live_consistent();
        },
        options_.settle_deadline, options_.poll_interval / 10);
    if (!settled) {
      result.violations.push_back(
          "heads failed to reconverge after view epoch " +
          std::to_string(epoch) + " at t=" +
          std::to_string(cluster_->sim().now().us) + "us [" +
          heads_snapshot() + "]");
    } else {
      ++result.convergence_checks;
    }
    check_exactly_r(result);
  }

  /// All live, in-service heads share one view (no flush in flight); with
  /// shards, every ordering group independently.
  bool group_stable() const { return cluster_->converged(); }

  /// joshuatest::heads_consistent, inlined so the harness has no dependency
  /// on the joshua test directory: identical live-job tables everywhere.
  bool heads_live_consistent() const {
    // jobs() is id-ordered, so the live subset projects to a comparable
    // vector without building per-head maps (job tables hold the full
    // completed history and get large over a multi-day campaign).
    using LiveRow = std::tuple<pbs::JobId, pbs::JobState, bool>;
    // One reference table per ordering group: shards hold disjoint job sets
    // by design, so consistency is a within-group invariant.
    std::map<uint32_t, std::vector<LiveRow>> ref;
    std::vector<LiveRow> live;
    bool any = false;
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      if (!cluster_->net().host(cluster_->head_hosts()[i]).up()) continue;
      if (!cluster_->joshua_server(i).in_service()) continue;
      live.clear();
      for (const auto& [id, job] : cluster_->pbs_server(i).jobs()) {
        if (!job.terminal()) live.emplace_back(id, job.state, job.cancelled);
      }
      auto [it, inserted] = ref.emplace(cluster_->shard_of_head(i), live);
      any = true;
      if (!inserted && live != it->second) return false;
    }
    return any;
  }

  /// Invariant 1, generalised from exactly-once to exactly-r: across all
  /// moms, no job id has more real executions than its replication factor
  /// -- except that each real run a quiet preempt kill terminated and each
  /// compute fault on a host that really ran the job excuse one relaunch
  /// (the kill/fault ended that run, so requeueing it is the feature, not a
  /// violation). All three counts are mom-side "on-disk job records"
  /// (real_run_log / preempt_kill_log), so the accounting survives both
  /// node crashes and head churn -- a head that ordered a preemption and
  /// then crashed forgets its preempt_count, the mom that performed the
  /// kill does not. With r = 1, no preemption and no compute faults this
  /// is exactly the old exactly-once invariant.
  void check_exactly_r(ScenarioResult& result) {
    std::map<sim::HostId, uint32_t> faults_by_host;
    for (const auto& f : cluster_->faults().compute_faults())
      ++faults_by_host[f.host];
    std::map<pbs::JobId, uint32_t> real_runs;
    std::map<pbs::JobId, uint32_t> excused;
    std::map<pbs::JobId, uint32_t> quiet_kills;
    for (size_t m = 0; m < cluster_->compute_count(); ++m) {
      sim::HostId host = cluster_->compute_hosts()[m];
      auto fit = faults_by_host.find(host);
      uint32_t host_faults = fit == faults_by_host.end() ? 0 : fit->second;
      for (const auto& [id, runs] : cluster_->mom(m).real_run_log()) {
        real_runs[id] += runs;
        excused[id] += host_faults;
      }
      for (const auto& [id, kills] : cluster_->mom(m).quiet_kill_log())
        quiet_kills[id] += kills;
    }
    for (const auto& [id, runs] : real_runs) {
      uint32_t cap =
          options_.replication + quiet_kills[id] + excused[id];
      if (runs > cap && double_launched_.insert(id).second) {
        result.violations.push_back(
            "job " + std::to_string(id) + " really launched " +
            std::to_string(runs) + " times (cap " + std::to_string(cap) +
            " = r " + std::to_string(options_.replication) + " + " +
            std::to_string(quiet_kills[id]) + " quiet kills + excused " +
            std::to_string(excused[id]) + ")");
      }
    }
  }

  /// Invariant 2: every per-head replay-divergence counter is zero.
  void check_replay_divergence(ScenarioResult& result) {
    for (const auto& cell :
         cluster_->sim().telemetry().metrics().counters()) {
      if (cell.name.rfind("joshua.replay_divergence.", 0) != 0) continue;
      if (cell.value != 0) {
        result.violations.push_back(cell.name + " = " +
                                    std::to_string(cell.value));
      }
    }
  }

  /// Invariant 4: every accepted job id is terminal-or-live at the end. In
  /// tolerate_lost_jobs mode (the r = 1, heartbeat-off paper baseline),
  /// compute failures legitimately strand jobs; everything accepted and
  /// never completed is tallied as lost instead of flagged.
  void check_accepted_then_lost(ScenarioResult& result) {
    if (options_.tolerate_lost_jobs) {
      for (pbs::JobId id : accepted_order_) {
        if (completed_seen_.count(id) == 0) ++result.jobs_lost;
      }
      return;
    }
    std::set<pbs::JobId> live_now;
    for (size_t i = 0; i < cluster_->head_count(); ++i) {
      if (!cluster_->net().host(cluster_->head_hosts()[i]).up()) continue;
      if (!cluster_->joshua_server(i).in_service()) continue;
      for (const auto& [id, job] : cluster_->pbs_server(i).jobs()) {
        if (!job.terminal()) live_now.insert(id);
      }
    }
    for (pbs::JobId id : accepted_order_) {
      if (completed_seen_.count(id) != 0) continue;
      if (live_now.count(id) != 0) continue;
      result.violations.push_back("job " + std::to_string(id) +
                                  " was accepted then lost");
    }
  }

  // -- availability ----------------------------------------------------------

  /// Per-head merged down intervals from the injector's schedule, clamped to
  /// [0, now].
  std::vector<std::vector<std::pair<int64_t, int64_t>>> head_down_spans()
      const {
    sim::Time now = cluster_->sim().now();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> spans(
        cluster_->head_count());
    for (const auto& o : cluster_->faults().outages()) {
      for (size_t i = 0; i < cluster_->head_count(); ++i) {
        if (cluster_->head_hosts()[i] != o.host) continue;
        int64_t up = (o.up == sim::kTimeInfinity ? now : o.up).us;
        if (up > o.down.us) spans[i].emplace_back(o.down.us, up);
      }
    }
    for (auto& s : spans) {
      std::sort(s.begin(), s.end());
      std::vector<std::pair<int64_t, int64_t>> merged;
      for (const auto& [lo, hi] : s) {
        if (!merged.empty() && lo <= merged.back().second)
          merged.back().second = std::max(merged.back().second, hi);
        else
          merged.emplace_back(lo, hi);
      }
      s = std::move(merged);
    }
    return spans;
  }

  /// Peak number of heads down at one instant over the whole schedule.
  int max_concurrent_down() const {
    std::vector<std::pair<int64_t, int>> edges;
    for (const auto& s : head_down_spans()) {
      for (const auto& [lo, hi] : s) {
        edges.emplace_back(lo, +1);
        edges.emplace_back(hi, -1);
      }
    }
    std::sort(edges.begin(), edges.end());
    int depth = 0, peak = 0;
    for (const auto& [t, d] : edges) {
      depth += d;
      peak = std::max(peak, depth);
    }
    return peak;
  }

  /// Time during which EVERY head host was down simultaneously.
  sim::Duration all_heads_down_time() const {
    auto spans = head_down_spans();
    std::vector<std::pair<int64_t, int>> edges;
    for (const auto& s : spans) {
      for (const auto& [lo, hi] : s) {
        edges.emplace_back(lo, +1);
        edges.emplace_back(hi, -1);
      }
    }
    std::sort(edges.begin(), edges.end());
    int depth = 0;
    int64_t total = 0, since = 0;
    int n = static_cast<int>(cluster_->head_count());
    for (const auto& [t, d] : edges) {
      if (depth == n) total += t - since;
      depth += d;
      if (depth == n) since = t;
    }
    return sim::Duration{total};
  }

  // -- result assembly -------------------------------------------------------

  static void fnv(uint64_t& h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }

  uint64_t behaviour_digest() const {
    uint64_t h = 1469598103934665603ull;
    sim::Simulation& sim = cluster_->sim();
    fnv(h, sim.events_executed());
    fnv(h, static_cast<uint64_t>(sim.now().us));
    for (pbs::JobId id : accepted_order_) fnv(h, id);
    for (const auto& o : cluster_->faults().outages()) {
      fnv(h, o.host);
      fnv(h, static_cast<uint64_t>(o.down.us));
      fnv(h, static_cast<uint64_t>(o.up.us));
    }
    for (const auto& cell : sim.telemetry().metrics().counters()) {
      fnv(h, std::hash<std::string>{}(cell.name));
      fnv(h, cell.value);
    }
    fnv(h, sim.telemetry().trace().recorded());
    for (size_t m = 0; m < cluster_->compute_count(); ++m) {
      fnv(h, cluster_->mom(m).jobs_executed());
      fnv(h, cluster_->mom(m).launches_emulated());
    }
    return h;
  }

  void finalize(ScenarioResult& result) {
    sim::Simulation& sim = cluster_->sim();
    check_exactly_r(result);
    check_replay_divergence(result);
    check_accepted_then_lost(result);
    result.duplicate_completions = duplicate_completions_;
    if (duplicate_completions_ != 0) {
      result.violations.push_back(
          std::to_string(duplicate_completions_) +
          " duplicate completion(s) delivered to a head");
    }

    result.jsub_attempted = tally_.jsub_attempted;
    result.jsub_accepted = tally_.jsub_accepted;
    result.jdel_attempted = tally_.jdel_attempted;
    result.jdel_ok = tally_.jdel_ok;
    result.jstat_attempted = tally_.jstat_attempted;
    result.jstat_ok = tally_.jstat_ok;
    result.commands_failed = tally_.commands_failed;
    result.client_failovers = issuer_.failovers();
    for (pbs::JobId id : accepted_order_) {
      if (completed_seen_.count(id) != 0) ++result.jobs_completed;
    }

    double elapsed = static_cast<double>(sim.now().us);
    result.head_availability_min = 1.0;
    result.head_availability_max = 0.0;
    for (sim::HostId head : cluster_->head_hosts()) {
      double down =
          static_cast<double>(cluster_->faults().recorded_downtime(head).us);
      double a = elapsed > 0 ? 1.0 - down / elapsed : 1.0;
      result.head_availability_min = std::min(result.head_availability_min, a);
      result.head_availability_max = std::max(result.head_availability_max, a);
    }
    if (result.head_availability_max < result.head_availability_min)
      result.head_availability_max = result.head_availability_min;
    result.service_downtime = all_heads_down_time();
    result.service_availability =
        elapsed > 0
            ? 1.0 - static_cast<double>(result.service_downtime.us) / elapsed
            : 1.0;

    result.events_executed = sim.events_executed();
    result.end_time = sim.now();
    result.digest = behaviour_digest();

    telemetry::ScenarioReport& r = result.report;
    r.set_meta("scenario", options_.name);
    r.set_meta("seed", std::to_string(options_.seed));
    r.set_meta("digest", std::to_string(result.digest));
    r.set_meta("sched", options_.sched.policy);
    r.set_meta("selector", options_.sched.selector);
    r.set("scenario.heads", options_.heads);
    r.set("scenario.computes", options_.computes);
    r.set("scenario.shards", options_.shards);
    r.set("scenario.replication", static_cast<double>(options_.replication));
    r.set("scenario.mom_heartbeat_s",
          static_cast<double>(options_.mom_heartbeat.us) / 1e6);
    r.set("scenario.duration_s", static_cast<double>(options_.duration.us) / 1e6);
    r.set("scenario.failure_cycles", result.failure_cycles);
    r.set("scenario.compute_faults",
          static_cast<double>(result.compute_fault_count));
    r.set("scenario.jobs_lost", static_cast<double>(result.jobs_lost));
    r.set("scenario.duplicate_completions",
          static_cast<double>(result.duplicate_completions));
    r.set("scenario.max_concurrent_down", result.max_concurrent_down);
    r.set("scenario.service_gap_polls",
          static_cast<double>(result.service_gap_polls));
    r.set("scenario.view_changes", static_cast<double>(result.view_changes_seen));
    r.set("scenario.convergence_checks",
          static_cast<double>(result.convergence_checks));
    r.set("scenario.violations", static_cast<double>(result.violations.size()));
    r.set("scenario.jsub_accepted", static_cast<double>(result.jsub_accepted));
    r.set("scenario.jobs_completed", static_cast<double>(result.jobs_completed));
    r.set("scenario.commands_failed", static_cast<double>(result.commands_failed));
    r.set("scenario.client_failovers",
          static_cast<double>(result.client_failovers));
    r.set("scenario.availability.head_min", result.head_availability_min);
    r.set("scenario.availability.head_max", result.head_availability_max);
    r.set("scenario.availability.service", result.service_availability);
    r.set("scenario.downtime.service_s",
          static_cast<double>(result.service_downtime.us) / 1e6);
    r.set("scenario.events_executed",
          static_cast<double>(result.events_executed));
    r.note_metrics(sim.telemetry().metrics());
    r.note_trace(sim.telemetry().trace());
  }

  ScenarioOptions options_;
  std::unique_ptr<joshua::Cluster> cluster_;
  Issuer issuer_;
  bool workload_done_ = false;

  struct Tally {
    uint64_t jsub_attempted = 0, jsub_accepted = 0;
    uint64_t jdel_attempted = 0, jdel_ok = 0;
    uint64_t jstat_attempted = 0, jstat_ok = 0;
    uint64_t commands_failed = 0;
  } tally_;

  std::vector<pbs::JobId> accepted_order_;
  std::set<pbs::JobId> accepted_;
  std::map<int64_t, pbs::JobId> trace_ids_;  ///< trace submit index -> base id
  std::vector<pbs::JobId> live_ids_;  ///< accepted, not yet seen terminal
  std::set<pbs::JobId> completed_seen_;
  std::set<pbs::JobId> double_launched_;
  /// Per head: job ids whose completion this service incarnation delivered.
  std::vector<std::set<pbs::JobId>> completed_per_head_;
  uint64_t duplicate_completions_ = 0;
};

}  // namespace scenariotest
