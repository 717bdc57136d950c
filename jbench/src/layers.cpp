// Host-time layer rigs for traced runs: each drives one layer in isolation
// through its public API, with the traffic the workload produced, and is
// timed from here. In-program per-layer wall accounting is a later step;
// these rigs give the split until then.
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "gcs/group_member.h"
#include "spans.h"
#include "util/rng.h"

namespace jbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run `sim` in `slice` steps until `done` or `limit` simulated time.
bool drive(sim::Simulation& sim, const std::function<bool()>& done,
           sim::Duration slice, sim::Duration limit) {
  const sim::Time end = sim.now() + limit;
  while (!done() && sim.now() < end) sim.run_until(sim.now() + slice);
  return done();
}

}  // namespace

double pbs_us_per_cmd(const Workload& w, const std::vector<Command>& plan,
                      SpanLog* spans) {
  // Plain TORQUE: one PBS server, no JOSHUA, same computes, costs and
  // scheduler. Every head of the workload runs one such replica.
  joshua::ClusterOptions options = w.cluster;
  options.with_joshua = false;
  options.head_count = 1;
  options.auto_rejoin = false;
  joshua::Cluster cluster(options);
  sim::Simulation& sim = cluster.sim();
  sim.telemetry().trace().set_enabled(false);
  pbs::Client& client = cluster.make_pbs_client(0);

  std::vector<pbs::JobId> ids(plan.size(), pbs::kInvalidJob);
  size_t next = 0, settled = 0, stop_at = 0;
  bool failed = false;
  // One command at a time, in plan order; the next is issued from the
  // previous one's reply.
  std::function<void()> pump = [&] {
    if (next >= stop_at) return;
    size_t i = next++;
    const Command& c = plan[i];
    pbs::JobId target =
        c.target >= 0 ? ids[static_cast<size_t>(c.target)] : pbs::kInvalidJob;
    auto done = [&](bool ok) {
      failed = failed || !ok;
      ++settled;
      pump();
    };
    switch (c.kind) {
      case Kind::kSub:
        client.qsub(c.spec, [&, i, done](std::optional<pbs::SubmitResponse> r) {
          bool ok = r.has_value() && r->status == pbs::Status::kOk;
          if (ok) ids[i] = r->job_id;
          done(ok);
        });
        break;
      case Kind::kStat: {
        pbs::StatRequest req;
        req.job_id = target;
        req.include_complete = true;
        client.qstat(req, [done](std::optional<pbs::StatResponse> r) {
          done(r.has_value() && r->status == pbs::Status::kOk);
        });
        break;
      }
      case Kind::kDel:
        client.qdel(target, [done](std::optional<pbs::SimpleResponse> r) {
          done(r.has_value() && r->status == pbs::Status::kOk);
        });
        break;
    }
  };

  // Warm-up: the backlog, untimed.
  const size_t backlog = static_cast<size_t>(w.backlog);
  stop_at = backlog;
  pump();
  drive(sim, [&] { return settled == backlog; }, w.slice, w.deadline);
  stop_at = plan.size();
  auto all_done = [&] { return settled == plan.size(); };
  double host_s = 0;
  {
    HostSpan span(spans, "pbs_rig", 1);
    const auto t0 = Clock::now();
    pump();
    drive(sim, all_done, w.slice, w.deadline * 4);
    host_s = seconds_since(t0);
  }
  if (!all_done() || failed)
    throw std::runtime_error("pbs rig: replay did not complete cleanly");
  return host_s * 1e6 / static_cast<double>(plan.size() - backlog);
}

double gcs_us_per_msg(const Workload& w, uint64_t msgs, size_t payload,
                      int senders, SpanLog* spans) {
  // Built like bench_ordering's Rig, but with the GroupConfig a Cluster of
  // this workload gives its JOSHUA servers.
  const joshua::ClusterOptions& co = w.cluster;
  sim::Simulation sim(co.seed);
  sim.telemetry().trace().set_enabled(false);
  sim::Network net(sim, co.cal.network);
  std::vector<sim::HostId> hosts;
  for (int i = 0; i < co.head_count; ++i)
    hosts.push_back(net.add_host("head" + std::to_string(i)).id());
  std::vector<uint64_t> delivered(hosts.size(), 0);
  std::vector<std::unique_ptr<gcs::GroupMember>> members;
  // One message in flight, the senders taking turns: message k leaves
  // member k % senders once message k-1 is delivered back to its sender.
  // (With several senders each keeping one message in flight, all-ack
  // ordering at the paper's costs stalled once traffic thinned out.)
  uint64_t sent = 0;
  auto send = [&] {
    if (sent >= msgs) return;
    const size_t member = sent++ % static_cast<uint64_t>(senders);
    members[member]->multicast(sim::Payload(payload, 0x5a),
                               gcs::Delivery::kAgreed);
  };
  for (size_t i = 0; i < hosts.size(); ++i) {
    joshua::JoshuaConfig jc = joshua::joshua_config_from(co.cal, hosts);
    gcs::GroupConfig cfg = jc.group;
    cfg.port = joshua::Ports::kGcs;
    cfg.require_majority = co.require_majority;
    if (co.gcs_heartbeat.us > 0) cfg.heartbeat_interval = co.gcs_heartbeat;
    if (co.gcs_suspect.us > 0) cfg.suspect_timeout = co.gcs_suspect;
    if (co.gcs_flush.us > 0) cfg.flush_timeout = co.gcs_flush;
    cfg.ordering = co.ordering;
    cfg.order_batch = co.order_batch;
    cfg.inflight_window = co.order_window;
    gcs::GroupCallbacks cb;
    cb.on_deliver = [&, i](const gcs::Delivered& d) {
      ++delivered[i];
      if (d.sender == hosts[i]) send();
    };
    members.push_back(
        std::make_unique<gcs::GroupMember>(net, hosts[i], cfg, cb));
  }
  for (auto& m : members) m->join();
  auto converged = [&] {
    for (const auto& m : members)
      if (m->state() != gcs::GroupMember::State::kMember ||
          m->view().size() != members.size())
        return false;
    return true;
  };
  if (!drive(sim, converged, sim::msec(20), sim::minutes(5)))
    throw std::runtime_error("gcs rig: group did not converge");
  auto all_delivered = [&] {
    for (uint64_t d : delivered)
      if (d < msgs) return false;
    return true;
  };
  double host_s = 0;
  {
    HostSpan span(spans, "gcs_rig", 1);
    const auto t0 = Clock::now();
    send();
    drive(sim, all_delivered, w.slice, w.deadline * 4);
    host_s = seconds_since(t0);
  }
  if (!all_delivered())
    throw std::runtime_error("gcs rig: messages were not all delivered");
  return host_s * 1e6 / static_cast<double>(msgs);
}

double sim_ns_per_event(uint64_t events, size_t depth, uint64_t seed,
                        SpanLog* spans) {
  sim::Simulation sim(seed);
  jutil::Rng rng(seed);
  struct Churn {
    sim::Simulation* sim;
    jutil::Rng* rng;
    uint64_t to_schedule;
    void fire() {
      if (to_schedule == 0) return;
      --to_schedule;
      sim->schedule(sim::usec(rng->uniform(1, 2000)), [this] { fire(); });
    }
  };
  Churn churn{&sim, &rng, events};
  if (depth < 1) depth = 1;
  for (size_t i = 0; i < depth && churn.to_schedule > 0; ++i) churn.fire();
  HostSpan span(spans, "sim_rig", 1);
  const auto t0 = Clock::now();
  const uint64_t before = sim.events_executed();
  sim.run();
  const double host_s = seconds_since(t0);
  const uint64_t ran = sim.events_executed() - before;
  return ran > 0 ? host_s * 1e9 / static_cast<double>(ran) : 0.0;
}

}  // namespace jbench
