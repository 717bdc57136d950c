// Workload definitions, command planning and one rep of a workload.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "net/wire.h"
#include "spans.h"
#include "util/rng.h"

namespace jbench {

// -- statistics ---------------------------------------------------------------

int top_percentile(size_t n, size_t beyond) {
  for (int p = 99; p >= 1; --p) {
    size_t rank = (static_cast<size_t>(p) * n + 99) / 100;  // ceil(p% of n)
    if (rank >= 1 && n >= rank + beyond) return p;
  }
  return 0;
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

uint64_t fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::string> joshua_env_vars(char** envp) {
  std::vector<std::string> found;
  for (char** e = envp; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "JOSHUA_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    found.emplace_back(*e, eq != nullptr ? static_cast<size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  return found;
}

// -- workloads ----------------------------------------------------------------

namespace {

/// Jobs outlive every rep, so the queue only changes through the commands.
constexpr sim::Duration kJobRunTime = sim::hours(10);
constexpr int kRunningDeleteEvery = 10;

/// Every ClusterOptions knob, set explicitly: the default initializers read
/// the process environment, and the benchmark must not.
joshua::ClusterOptions paper_testbed_options(uint64_t seed) {
  joshua::ClusterOptions c;
  c.head_count = 4;
  c.compute_count = 2;
  c.cal = sim::paper_testbed();
  c.with_joshua = true;
  c.transfer = joshua::TransferMode::kReplay;
  c.auto_rejoin = false;
  c.quirk_mom = false;
  c.require_majority = false;
  c.mom_heartbeat = sim::kDurationZero;
  c.heartbeat_miss_limit = 3;
  c.sched.policy = "fifo";
  c.sched.selector = "firstfit";
  c.sched.exclusive_cluster = true;
  c.sched.priority_aging = sim::kDurationZero;
  c.seed = seed;  // network jitter and loss draws
  // Heartbeat at the GroupConfig default (100 ms). Suspect and flush are
  // relaxed from 500 ms / 1.2 s: replaying the log into a joiner keeps the
  // 450 MHz heads busy for tens of seconds, and at the defaults busy
  // survivors were expelled in turn.
  c.gcs_heartbeat = sim::kDurationZero;
  c.gcs_suspect = sim::seconds(2);
  c.gcs_flush = sim::seconds(4);
  c.ordering = gcs::OrderingMode::kAllAck;
  c.order_batch = 0;
  c.order_window = 0;
  c.shards = joshua::ShardLayout{};
  return c;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper4_mix", "wide64_submit",
                                                 "head_failover"};
  return names;
}

Workload make_workload(std::string_view name, uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.cluster = paper_testbed_options(seed);
  if (name == "paper4_mix") {
    // The paper's testbed and cost model; the queue only grows, so jstat
    // (which encodes it) and every persisting mutation cost more per
    // command as the phase goes on. Without think time the 4 clients
    // saturate the heads and ordered throughput falls into seed-dependent
    // regimes (4.4 vs 5.9 cmds/s).
    w.clients = 4;
    w.think = sim::seconds(2);
    w.block = {10, 5, 3};
    w.blocks = 100;
    w.backlog = 40;
    w.slice = sim::msec(50);
    w.warmup_drain = sim::seconds(10);
    w.settle = sim::minutes(2);
    w.deadline = sim::minutes(30);
  } else if (name == "wide64_submit") {
    // 64 heads on modern-hardware costs: host time is gcs bookkeeping.
    // Heartbeat 1 s / suspect 10 s / flush 20 s, as bench_federation and
    // bench_ordering relax them, so the group converges and never churns.
    // Clients in lock-step make latency multi-modal (one mode per command
    // ahead in the order), so they think 300 ms between commands; the
    // jitter keeps an uncontended command's latency from being identical
    // for every seed.
    w.cluster.head_count = 64;
    w.cluster.cal = sim::fast_calibration();
    w.cluster.cal.network.jitter = sim::usec(20);
    w.cluster.gcs_heartbeat = sim::seconds(1);
    w.cluster.gcs_suspect = sim::seconds(10);
    w.cluster.gcs_flush = sim::seconds(20);
    w.clients = 4;
    w.cycle_own_job = true;
    w.think = sim::msec(300);
    w.block = {1, 1, 1};
    w.blocks = 3;
    w.backlog = 4;
    w.slice = sim::msec(5);
    w.warmup_drain = sim::seconds(2);
    w.settle = sim::seconds(30);
    w.deadline = sim::minutes(5);
  } else if (name == "head_failover") {
    // paper4_mix's cluster with auto-rejoin; an open loop on a fixed
    // schedule, the clients' first head crashing mid-run.
    w.cluster.auto_rejoin = true;
    w.open_loop = true;
    w.clients = 4;
    w.block = {3, 3, 1};
    w.blocks = 100;
    w.backlog = 40;
    w.interval = sim::seconds(1);
    w.outage = sim::seconds(20);
    w.rejoin_limit = sim::minutes(3);
    w.slice = sim::msec(50);
    w.warmup_drain = sim::seconds(10);
    w.settle = sim::minutes(2);
    w.deadline = sim::minutes(30);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return w;
}

std::vector<Command> plan_commands(const Workload& w, uint64_t seed) {
  jutil::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6a09e667f3bcc909ull);
  std::vector<Command> plan;
  // Closed loops: within 5% of the mean, so clients drift out of lock-step
  // while the phase length stays nearly the same whatever the seed.
  auto think = [&] {
    const int64_t t = w.think.us;
    return sim::Duration{t > 0 ? rng.uniform(t - t / 20, t + t / 20) : 0};
  };
  auto add_sub = [&](int client) {
    Command c;
    c.kind = Kind::kSub;
    c.client = client;
    c.spec.name = "j" + std::to_string(plan.size());
    c.spec.user = "user" + std::to_string(rng.uniform(0, 15));
    c.spec.nodes = 1;
    c.spec.run_time = kJobRunTime;
    c.spec.walltime = kJobRunTime;
    c.spec.script = std::string(static_cast<size_t>(rng.uniform(32, 480)), '#');
    c.think = think();
    plan.push_back(std::move(c));
  };
  for (int i = 0; i < w.backlog; ++i) add_sub(i % w.clients);

  if (w.cycle_own_job) {
    for (int k = 0; k < w.blocks; ++k) {
      for (int c = 0; c < w.clients; ++c) {
        int sub = static_cast<int>(plan.size());
        add_sub(c);
        plan.push_back(Command{Kind::kStat, c, sub, {}, think(), {}});
        plan.push_back(Command{Kind::kDel, c, sub, {}, think(), {}});
      }
    }
    return plan;
  }

  // One mixed stream, block by block: every block holds the same number of
  // each kind, in a seed-chosen order, so the mix is even along the phase.
  // A delete may only target a job whose jsub is certainly acknowledged:
  // `lag` plan positions back in a closed loop of `clients`, a minute of due
  // times back in the open loop (which covers a failover).
  const int lag =
      w.open_loop ? static_cast<int>(sim::minutes(1).us / w.interval.us)
                  : w.clients;
  std::vector<int> live;  // eligible, undeleted jsub indices, oldest first
  int next_eligible = 0;  // next plan index to consider for `live`
  int deletes = 0;
  int pos = 0;
  sim::Duration due = sim::kDurationZero;
  const int first = static_cast<int>(plan.size());
  for (int b = 0; b < w.blocks; ++b) {
    std::vector<Kind> kinds;
    for (int k = 0; k < kKinds; ++k)
      kinds.insert(kinds.end(), static_cast<size_t>(w.block[static_cast<size_t>(k)]),
                   static_cast<Kind>(k));
    for (size_t i = kinds.size(); i > 1; --i)
      std::swap(kinds[i - 1], kinds[static_cast<size_t>(rng.uniform(
                                  0, static_cast<int64_t>(i) - 1))]);
    for (Kind kind : kinds) {
      for (; next_eligible <= first + pos - lag || next_eligible < w.backlog;
           ++next_eligible) {
        if (plan[static_cast<size_t>(next_eligible)].kind == Kind::kSub)
          live.push_back(next_eligible);
      }
      const int client = pos % w.clients;
      if (kind == Kind::kSub) {
        add_sub(client);
      } else if (kind == Kind::kStat) {
        plan.push_back(Command{Kind::kStat, client, -1, {}, think(), {}});
      } else {
        if (live.empty()) throw std::logic_error("plan: no job to delete");
        // Every kRunningDeleteEvery-th delete cancels the oldest live job,
        // the one FIFO-exclusive scheduling runs; the others cancel a
        // random queued one. A fixed count of running-job cancels keeps the
        // number of relaunches (and their jmutex traffic) equal across seeds.
        size_t pick = 0;
        if (++deletes % kRunningDeleteEvery != 0 && live.size() > 1)
          pick = static_cast<size_t>(
              rng.uniform(1, static_cast<int64_t>(live.size()) - 1));
        plan.push_back(Command{Kind::kDel, client, live[pick], {}, think(), {}});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      if (w.open_loop) {
        // Gaps uniform in [interval/2, 3*interval/2]: arrivals on a fixed
        // period would all meet the 100 ms gcs heartbeat grid at the same
        // phase, and every uncontended jsub would take the same time.
        plan.back().due = due;
        due += sim::Duration{rng.uniform(w.interval.us / 2,
                                         w.interval.us + w.interval.us / 2)};
      }
      ++pos;
    }
  }
  return plan;
}

// -- one rep ------------------------------------------------------------------

uint64_t RepResult::commands() const {
  return attempted[0] + attempted[1] + attempted[2];
}

uint64_t RepResult::completed() const {
  return commands() - failed[0] - failed[1] - failed[2];
}

std::string RepResult::sim_signature() const {
  std::string s;
  char buf[96];
  auto put = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "%s=%.17g;", k, v);
    s += buf;
  };
  auto put_u = [&](const char* k, uint64_t v) {
    std::snprintf(buf, sizeof buf, "%s=%llu;", k,
                  static_cast<unsigned long long>(v));
    s += buf;
  };
  for (int k = 0; k < kKinds; ++k) {
    uint64_t h = kFnvOffset;
    for (double v : latency_ms[static_cast<size_t>(k)])
      h = fnv1a(reinterpret_cast<const uint8_t*>(&v), sizeof v, h);
    put_u("attempted", attempted[static_cast<size_t>(k)]);
    put_u("failed", failed[static_cast<size_t>(k)]);
    put_u("latency_hash", h);
  }
  put("ordered_cmds_per_s", ordered_cmds_per_s);
  put("failover_gap_ms", failover_gap_ms);
  put("rejoin_s", rejoin_s);
  put_u("digest", digest);
  put_u("gcs_msgs", gcs_msgs);
  put("gcs_mean_payload", gcs_mean_payload);
  put_u("gcs_senders", static_cast<uint64_t>(gcs_senders));
  put_u("events", events);
  put("mean_pending", mean_pending);
  for (const auto& [k, v] : layer) put(k.c_str(), v);
  for (const auto& [k, v] : samples) put(k.c_str(), v);
  return s;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A head's live (non-terminal) jobs in FIFO order.
std::vector<const pbs::Job*> live_queue(const pbs::Server& server) {
  std::vector<const pbs::Job*> live;
  for (const auto& [id, job] : server.jobs())
    if (!job.terminal()) live.push_back(&job);
  std::stable_sort(live.begin(), live.end(),
                   [](const pbs::Job* a, const pbs::Job* b) {
                     return a->queue_rank < b->queue_rank;
                   });
  return live;
}

/// The replicated part of a head's PBS table: every live job in FIFO order,
/// with its id, spec, state and cancel flag -- the longevity harness's
/// heads_live_consistent() notion plus spec and queue order. Terminal jobs
/// are left out because a replay-mode joiner legitimately lacks completed
/// history (the transferred log is compacted), and with them the per-head
/// record of how a job ended (exit code, clock readings, exec host). Rank
/// values are left out too: a joiner renumbers the queue it replays; the
/// order is what scheduling depends on.
uint64_t table_digest(const pbs::Server& server) {
  net::Writer w;
  for (const pbs::Job* job : live_queue(server)) {
    w.u64(job->id);
    pbs::encode_job_spec(w, job->spec);
    w.u8(static_cast<uint8_t>(job->state));
    w.boolean(job->cancelled);
  }
  sim::Payload bytes = w.take();
  return fnv1a(bytes.data(), bytes.size());
}

/// Registry readings at the start of the timed phase.
struct Baseline {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, telemetry::HistogramData> histograms;

  explicit Baseline(const telemetry::Registry& m) {
    for (const auto& c : m.counters()) counters[c.name] = c.value;
    for (const auto& h : m.histograms()) histograms[h.name] = h.data;
  }

  uint64_t counter(const telemetry::Registry& m, const char* name) const {
    const auto* c = m.find_counter(name);
    if (c == nullptr) return 0;
    auto it = counters.find(name);
    return c->value - (it != counters.end() ? it->second : 0);
  }

  /// The samples recorded since the baseline. Exact min/max are lost, so
  /// the tails clamp to the outermost non-empty bucket bounds.
  telemetry::HistogramData histogram(const telemetry::Registry& m,
                                     const char* name) const {
    telemetry::HistogramData d;
    const auto* h = m.find_histogram(name);
    if (h == nullptr) return d;
    d = h->data;
    auto it = histograms.find(name);
    if (it != histograms.end()) {
      for (size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] -= it->second.buckets[i];
      d.count -= it->second.count;
      d.sum -= it->second.sum;
    }
    int lo = -1, hi = -1;
    for (size_t i = 0; i < d.buckets.size(); ++i) {
      if (d.buckets[i] == 0) continue;
      if (lo < 0) lo = static_cast<int>(i);
      hi = static_cast<int>(i);
    }
    if (lo < 0) return telemetry::HistogramData{};
    d.min = lo == 0 ? 0 : int64_t{1} << (lo - 1);
    d.max = hi == 0 ? 1 : int64_t{1} << hi;
    return d;
  }
};

struct Outcome {
  sim::Time issued{0};
  sim::Time replied{0};
  bool ok = false;
  int replies = 0;
  pbs::JobId job = pbs::kInvalidJob;
};

/// Drives one rep: owns the cluster, the clients and every command outcome.
class Rep {
 public:
  Rep(const Workload& w, const std::vector<Command>& plan, bool traced,
      SpanLog* spans, int rep)
      : w_(w),
        plan_(plan),
        spans_(spans),
        rep_(rep),
        cluster_(w.cluster),
        out_(plan.size()) {
    cluster_.sim().telemetry().trace().set_enabled(traced);
  }

  RepResult run();

 private:
  sim::Simulation& sim() { return cluster_.sim(); }
  void issue(size_t i, std::function<void()> then);
  void finish(size_t i, bool ok, pbs::JobId job, std::function<void()>& then);
  bool drive(const std::function<bool()>& done, sim::Time limit,
             bool sample_depth);
  bool live_heads_agree();
  /// Closed loops: clients start spread over one think time, so they do not
  /// begin (and stay) in lock-step.
  sim::Duration start_offset(size_t client) const {
    return sim::Duration{w_.think.us * static_cast<int64_t>(client) /
                         w_.clients};
  }
  void check_replicas(RepResult& r);
  void collect(RepResult& r, const Baseline& base, sim::Time t0);

  const Workload& w_;
  const std::vector<Command>& plan_;
  SpanLog* spans_;
  int rep_;
  joshua::Cluster cluster_;
  std::vector<joshua::Client*> clients_;
  std::vector<Outcome> out_;
  size_t settled_ = 0;  ///< commands answered (or failed) so far
  std::set<size_t> senders_;
  uint64_t failovers_at_start_ = 0;
  double depth_sum_ = 0;
  uint64_t depth_samples_ = 0;
  // Open loop fault schedule.
  sim::Time crash_at_ = sim::kTimeInfinity;
  sim::Time restart_at_ = sim::kTimeInfinity;
  sim::Time rejoined_at_ = sim::kTimeInfinity;
  sim::Time next_rejoin_poll_{0};
  std::vector<std::string> errors_;
};

void Rep::finish(size_t i, bool ok, pbs::JobId job,
                 std::function<void()>& then) {
  Outcome& o = out_[i];
  if (++o.replies > 1) {
    errors_.push_back("command " + std::to_string(i) +
                      ": callback fired twice");
    return;
  }
  o.replied = sim().now();
  o.ok = ok;
  o.job = job;
  ++settled_;
  if (ok) senders_.insert(clients_[static_cast<size_t>(plan_[i].client)]
                              ->current_head());
  if (spans_ != nullptr)
    spans_->add(SpanLog::Clock::kSim,
                kKindNames[static_cast<size_t>(plan_[i].kind)].data(),
                plan_[i].client, i, static_cast<double>(o.issued.us),
                static_cast<double>((o.replied - o.issued).us));
  if (then) then();
}

void Rep::issue(size_t i, std::function<void()> then) {
  const Command& c = plan_[i];
  joshua::Client& client = *clients_[static_cast<size_t>(c.client)];
  out_[i].issued = sim().now();
  pbs::JobId target = pbs::kInvalidJob;
  if (c.target >= 0) {
    target = out_[static_cast<size_t>(c.target)].job;
    if (target == pbs::kInvalidJob) {  // its jsub failed or is unanswered
      finish(i, false, pbs::kInvalidJob, then);
      return;
    }
  }
  switch (c.kind) {
    case Kind::kSub:
      client.jsub(c.spec, [this, i, then = std::move(then)](
                              std::optional<pbs::SubmitResponse> r) mutable {
        bool ok = r.has_value() && r->status == pbs::Status::kOk;
        finish(i, ok, ok ? r->job_id : pbs::kInvalidJob, then);
      });
      break;
    case Kind::kStat: {
      pbs::StatRequest req;
      req.job_id = target;  // kInvalidJob = every job
      req.include_complete = true;
      client.jstat(req, [this, i, then = std::move(then)](
                            std::optional<pbs::StatResponse> r) mutable {
        finish(i, r.has_value() && r->status == pbs::Status::kOk,
               pbs::kInvalidJob, then);
      });
      break;
    }
    case Kind::kDel:
      client.jdel(target, [this, i, then = std::move(then)](
                              std::optional<pbs::SimpleResponse> r) mutable {
        finish(i, r.has_value() && r->status == pbs::Status::kOk,
               pbs::kInvalidJob, then);
      });
      break;
  }
}

/// Run `slice`-long run_until calls until `done` or `limit`. Each slice is a
/// host-clock span in traced runs.
bool Rep::drive(const std::function<bool()>& done, sim::Time limit,
                bool sample_depth) {
  while (!done() && sim().now() < limit) {
    sim::Time to = std::min(sim().now() + w_.slice, limit);
    {
      HostSpan span(spans_, "run_until", 0, static_cast<uint64_t>(rep_));
      sim().run_until(to);
    }
    if (sample_depth) {
      depth_sum_ += static_cast<double>(sim().pending_events());
      ++depth_samples_;
    }
    if (restart_at_ <= sim().now() && rejoined_at_ == sim::kTimeInfinity &&
        sim().now() >= next_rejoin_poll_) {
      next_rejoin_poll_ = sim().now() + sim::msec(500);
      // Rejoined: a member of the full view again, with the survivors' table.
      if (cluster_.joshua_server(0).group().state() ==
              gcs::GroupMember::State::kMember &&
          cluster_.converged(cluster_.head_count()) && live_heads_agree())
        rejoined_at_ = sim().now();
    }
  }
  return done();
}

RepResult Rep::run() {
  RepResult r;
  const auto setup_t0 = Clock::now();
  const size_t backlog = static_cast<size_t>(w_.backlog);
  {
    HostSpan span(spans_, "setup", 0, static_cast<uint64_t>(rep_));
    cluster_.start();
    if (!cluster_.run_until_converged(sim::minutes(5))) {
      r.errors.push_back("cluster did not converge to one view");
      return r;
    }
    for (int c = 0; c < w_.clients; ++c)
      clients_.push_back(&cluster_.make_jclient());
    // Warm-up: the backlog, closed loop, then let its launch traffic drain.
    size_t next = 0;
    std::function<void()> pump = [&] {
      if (next < backlog) issue(next++, pump);
    };
    for (int c = 0; c < w_.clients; ++c) pump();
    if (!drive([&] { return settled_ == backlog; }, sim().now() + w_.deadline,
               false)) {
      r.errors.push_back("warm-up backlog did not complete");
      return r;
    }
    sim().run_for(w_.warmup_drain);
  }
  r.setup_s = seconds_since(setup_t0);

  // -- timed phase -----------------------------------------------------------
  const Baseline base(sim().telemetry().metrics());
  const uint64_t events0 = sim().events_executed();
  for (auto* c : clients_) failovers_at_start_ += c->failovers();
  const sim::Time t0 = sim().now();
  const sim::Time limit = t0 + w_.deadline;
  const size_t total = plan_.size();

  // Closed-loop state lives here so the callbacks can reach it.
  size_t next = backlog;
  // A client pauses for its command's think time after each reply.
  std::function<void()> pump_mixed = [&] {
    if (next >= total) return;
    const size_t i = next++;
    issue(i, [&, i] { sim().schedule(plan_[i].think, [&] { pump_mixed(); }); });
  };
  std::vector<std::vector<size_t>> own(static_cast<size_t>(w_.clients));
  std::vector<size_t> own_next(static_cast<size_t>(w_.clients), 0);
  std::vector<std::function<void()>> pump_own(
      static_cast<size_t>(w_.clients));

  const auto timed_t0 = Clock::now();
  {
    HostSpan span(spans_, "timed_phase", 0, static_cast<uint64_t>(rep_));
    if (w_.open_loop) {
      for (size_t i = backlog; i < total; ++i)
        sim().schedule_at(t0 + plan_[i].due, [this, i] { issue(i, {}); });
      // Crash the head the clients try first halfway through the schedule.
      crash_at_ = t0 + plan_.back().due / 2 + w_.interval / 2;
      restart_at_ = crash_at_ + w_.outage;
      cluster_.faults().crash_at(cluster_.head_hosts()[0], crash_at_);
      cluster_.faults().restart_at(cluster_.head_hosts()[0], restart_at_);
      // Re-entering the group after a host restart is the operator's step
      // (as in the longevity harness); it runs right after the restart.
      sim().schedule_at(restart_at_,
                        [this] { cluster_.joshua_server(0).start(); });
    } else if (w_.cycle_own_job) {
      for (size_t i = backlog; i < total; ++i)
        own[static_cast<size_t>(plan_[i].client)].push_back(i);
      for (size_t c = 0; c < own.size(); ++c) {
        pump_own[c] = [&, c] {
          if (own_next[c] >= own[c].size()) return;
          const size_t i = own[c][own_next[c]++];
          issue(i, [&, c, i] {
            sim().schedule(plan_[i].think, [&, c] { pump_own[c](); });
          });
        };
        sim().schedule(start_offset(c), [&, c] { pump_own[c](); });
      }
    } else {
      for (size_t c = 0; c < static_cast<size_t>(w_.clients); ++c)
        sim().schedule(start_offset(c), [&] { pump_mixed(); });
    }
    drive(
        [&] {
          return settled_ == total &&
                 (!w_.open_loop || rejoined_at_ != sim::kTimeInfinity ||
                  sim().now() >= restart_at_ + w_.rejoin_limit);
        },
        limit, true);
  }
  r.timed_s = seconds_since(timed_t0);
  collect(r, base, t0);
  r.events = sim().events_executed() - events0;

  // -- checks ----------------------------------------------------------------
  // Slow heads apply the tail of the stream after the origin answered it:
  // give them up to `settle` to agree before comparing.
  const sim::Time settle_limit = sim().now() + w_.settle;
  while (sim().now() < settle_limit && !live_heads_agree())
    sim().run_for(sim::seconds(1));
  check_replicas(r);
  for (auto& e : errors_) r.errors.push_back(e);
  return r;
}

void Rep::collect(RepResult& r, const Baseline& base, sim::Time t0) {
  const size_t backlog = static_cast<size_t>(w_.backlog);
  const double inf = std::numeric_limits<double>::infinity();
  sim::Time last_reply = t0;
  double payload_bytes = 0;
  for (size_t i = backlog; i < plan_.size(); ++i) {
    const Command& c = plan_[i];
    const Outcome& o = out_[i];
    auto k = static_cast<size_t>(c.kind);
    ++r.attempted[k];
    // Open loop: latency counts from the due time, so a stall delays later
    // commands too.
    sim::Time from = w_.open_loop ? t0 + c.due : o.issued;
    if (o.ok) {
      r.latency_ms[k].push_back(static_cast<double>((o.replied - from).us) /
                                1000.0);
      last_reply = std::max(last_reply, o.replied);
    } else {
      ++r.failed[k];
      r.latency_ms[k].push_back(inf);
    }
    switch (c.kind) {
      case Kind::kSub:
        payload_bytes += static_cast<double>(
            pbs::encode_request(pbs::SubmitRequest{c.spec}).size());
        break;
      case Kind::kStat:
        payload_bytes += static_cast<double>(
            pbs::encode_request(pbs::StatRequest{}).size());
        break;
      case Kind::kDel:
        payload_bytes += static_cast<double>(
            pbs::encode_request(pbs::DeleteRequest{}).size());
        break;
    }
    if (w_.open_loop && o.ok && crash_at_ <= t0 + c.due &&
        (r.failover_gap_ms == 0 ||
         (o.replied - crash_at_).millis() < r.failover_gap_ms))
      r.failover_gap_ms = (o.replied - crash_at_).millis();
  }
  for (auto& v : r.latency_ms) std::sort(v.begin(), v.end());
  const double cmds = static_cast<double>(r.commands());
  if (last_reply > t0)
    r.ordered_cmds_per_s =
        static_cast<double>(r.completed()) / (last_reply - t0).seconds();
  if (rejoined_at_ != sim::kTimeInfinity)
    r.rejoin_s = (rejoined_at_ - restart_at_).seconds();

  const telemetry::Registry& m = sim().telemetry().metrics();
  auto per_cmd = [&](const char* name) {
    return static_cast<double>(base.counter(m, name)) / cmds;
  };
  auto medium = base.histogram(m, "net.medium_wait_us");
  auto order = base.histogram(m, "gcs.order_latency_us");
  auto intercept = base.histogram(m, "joshua.intercept_to_reply_us");
  const double delivered =
      static_cast<double>(base.counter(m, "gcs.delivered"));
  auto& L = r.layer;
  L["net.frames_per_cmd"] = per_cmd("net.frames_sent");
  L["net.bytes_per_cmd"] = per_cmd("net.bytes_sent");
  L["net.medium_wait_ms_p99"] = medium.percentile(99) / 1000.0;
  L["gcs.order_ms_p50"] = order.percentile(50) / 1000.0;
  L["gcs.ctrl_msgs_per_cmd"] =
      delivered > 0 ? static_cast<double>(base.counter(m, "gcs.cuts_sent") +
                                          base.counter(m, "gcs.engine_msgs_sent")) /
                          delivered
                    : 0.0;
  L["gcs.nacks_per_cmd"] = per_cmd("gcs.nacks_sent");
  L["gcs.retransmits_per_cmd"] = per_cmd("gcs.retransmits_served");
  L["gcs.views_installed"] =
      static_cast<double>(base.counter(m, "gcs.views_installed"));
  L["pbs.sched_cycles_per_cmd"] = per_cmd("pbs.sched_cycles");
  L["joshua.intercept_ms_p50"] = intercept.percentile(50) / 1000.0;
  L["joshua.replays_applied"] =
      static_cast<double>(base.counter(m, "joshua.replays_applied"));
  uint64_t failovers = 0;
  for (auto* c : clients_) failovers += c->failovers();
  L["client.failovers"] = static_cast<double>(failovers - failovers_at_start_);
  r.samples["net.medium_wait"] = static_cast<double>(medium.count);
  r.samples["gcs.order"] = static_cast<double>(order.count);
  r.samples["joshua.intercept"] = static_cast<double>(intercept.count);

  r.gcs_msgs = base.counter(m, "gcs.data_sent");
  r.gcs_mean_payload = payload_bytes / cmds;
  r.gcs_senders = static_cast<int>(std::max<size_t>(senders_.size(), 1));
  r.mean_pending = depth_samples_ > 0
                       ? depth_sum_ / static_cast<double>(depth_samples_)
                       : 0.0;
}

bool Rep::live_heads_agree() {
  std::optional<uint64_t> first;
  for (size_t h = 0; h < cluster_.head_count(); ++h) {
    if (!cluster_.net().host(cluster_.head_hosts()[h]).up()) continue;
    uint64_t d = table_digest(cluster_.pbs_server(h));
    if (!first) first = d;
    if (d != *first) return false;
  }
  return true;
}

void Rep::check_replicas(RepResult& r) {
  // Every live head holds the same live table. A mismatch names the first
  // job that differs, so the failure explains itself without a rerun.
  const auto& heads = cluster_.head_hosts();
  size_t ref = heads.size();
  for (size_t h = 0; h < heads.size(); ++h) {
    if (!cluster_.net().host(heads[h]).up()) continue;
    uint64_t d = table_digest(cluster_.pbs_server(h));
    if (ref == heads.size()) {
      ref = h;
      r.digest = d;
    } else if (d != r.digest) {
      auto a = live_queue(cluster_.pbs_server(ref));
      auto b = live_queue(cluster_.pbs_server(h));
      size_t k = 0;
      while (k < a.size() && k < b.size() && a[k]->id == b[k]->id &&
             a[k]->spec.name == b[k]->spec.name &&
             a[k]->state == b[k]->state && a[k]->cancelled == b[k]->cancelled)
        ++k;
      auto row = [](const std::vector<const pbs::Job*>& q, size_t k) {
        if (k >= q.size()) return std::string("nothing");
        return "job " + std::to_string(q[k]->id) + " (" + q[k]->spec.name +
               ") in state " + pbs::state_letter(q[k]->state) +
               (q[k]->cancelled ? " (cancelled)" : "");
      };
      r.errors.push_back("head " + std::to_string(h) +
                         "'s live table differs from head " +
                         std::to_string(ref) + "'s at queue position " +
                         std::to_string(k) + ": " + row(a, k) + " vs " +
                         row(b, k));
    }
  }
  // Every acknowledged jsub id was handed out once, and is in the table of
  // every head that stayed up (a replay-mode joiner lacks terminal jobs; its
  // live table is compared above).
  std::set<pbs::JobId> acked;
  for (size_t i = 0; i < plan_.size(); ++i) {
    if (plan_[i].kind != Kind::kSub || !out_[i].ok) continue;
    if (!acked.insert(out_[i].job).second)
      r.errors.push_back("job id " + std::to_string(out_[i].job) +
                         " acknowledged twice");
  }
  for (size_t h = 0; h < heads.size(); ++h) {
    if (!cluster_.net().host(heads[h]).up() || (h == 0 && w_.open_loop))
      continue;
    const auto& jobs = cluster_.pbs_server(h).jobs();
    for (pbs::JobId id : acked) {
      if (jobs.count(id) == 0) {
        r.errors.push_back("acknowledged job " + std::to_string(id) +
                           " missing at head " + std::to_string(h));
        break;
      }
    }
  }
}

}  // namespace

RepResult run_rep(const Workload& w, const std::vector<Command>& plan,
                  bool traced, SpanLog* spans, int rep) {
  Rep r(w, plan, traced, spans, rep);
  return r.run();
}

}  // namespace jbench
