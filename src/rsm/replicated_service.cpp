#include "rsm/replicated_service.h"

#include "net/wire.h"
#include "util/logging.h"

namespace rsm {

Telemetry rsm_telemetry(telemetry::Hub& hub) {
  telemetry::Registry& m = hub.metrics();
  Telemetry t;
  t.requests = m.counter("rsm.requests");
  t.applied = m.counter("rsm.applied");
  t.local_reads = m.counter("rsm.local_reads");
  t.replies = m.counter("rsm.replies");
  t.order_latency = m.histogram("rsm.order_latency_us");
  t.order_span = hub.trace().intern("rsm.order");
  return t;
}

ReplicaNode::ReplicaNode(sim::Network& net, sim::HostId host,
                         ReplicaConfig config, IDeterministicService* service,
                         const Instrument& instrument)
    : net::RpcNode(net, host, config.client_port,
                   "replica@" + net.host(host).name()),
      config_(std::move(config)),
      service_(service),
      group_(net, host, config_.group,
             gcs::GroupCallbacks{
                 [this](const gcs::View& v) { on_view(v); },
                 [this](const gcs::Delivered& d) { on_deliver(d); },
                 [this] { return service_->snapshot(); },
                 [this](const sim::Payload& s) { service_->install(s); },
             }),
      m_(instrument(net.sim().telemetry())) {
  if (service_ == nullptr)
    throw std::invalid_argument("ReplicaNode: null service");
}

void ReplicaNode::start() { group_.join(); }

void ReplicaNode::shutdown() {
  // Fail outstanding clients fast so they fail over to another replica.
  fail_pending();
  group_.leave();
}

void ReplicaNode::order(sim::Payload op) {
  group_.multicast(std::move(op));
}

void ReplicaNode::on_request(sim::Payload request, sim::Endpoint from,
                             uint64_t rpc_id) {
  m_.requests.add(1);
  execute(config_.request_proc, [this, request = std::move(request),
                                 caller = Caller{from, rpc_id}]() mutable {
    Admit admit = service_->admit(request, caller);
    if (admit == Admit::kHandled) return;
    if (!group_.is_member()) {
      reply(caller, service_->unavailable(request));
      return;
    }
    if (admit == Admit::kLocal && config_.read_local) {
      answer_locally(std::move(request), caller);
      return;
    }
    m_.ordered.add(1);
    uint64_t seq = next_seq_++;
    sim::Payload frame = net::encode(Command{group_.id(), seq, request, 0});
    pending_[seq] = Pending{caller, sim().now().us, std::move(request)};
    group_.multicast(std::move(frame));
  });
}

void ReplicaNode::answer_locally(sim::Payload request, const Caller& caller) {
  m_.local_reads.add(1);
  sim::Duration cost = service_->local_cost(request);
  stage(cost, [this, p = Pending{caller, sim().now().us,
                                 std::move(request)}]() mutable {
    sim::Payload req = p.request;  // p moves into the callback below
    service_->apply_async(req, 0, /*answers=*/true,
                          [this, p = std::move(p)](
                              std::optional<sim::Payload> resp) mutable {
                            relay(std::move(p), std::move(resp),
                                  m_.local_latency, 0);
                          });
  });
}

void ReplicaNode::on_deliver(const gcs::Delivered& msg) {
  if (msg.payload.empty() || msg.payload[0] != kCommandTag) {
    service_->apply_op(msg.payload);
    return;
  }
  Command cmd;
  try {
    cmd = net::decode<Command>(msg.payload);
  } catch (const net::WireError& e) {
    JLOG(kWarn, "rsm") << name() << ": bad ordered request: " << e.what();
    return;
  }
  if (service_->on_ordered(cmd)) resume(std::move(cmd));
}

void ReplicaNode::resume(Command cmd) {
  sim::Duration cost = service_->apply_cost(cmd.request);
  execute(cost, [this, cmd = std::move(cmd)] {
    // Only the replica the client contacted answers it (finish()).
    service_->apply_async(cmd.request, cmd.tag, cmd.origin == group_.id(),
                          [this, origin = cmd.origin, seq = cmd.seq](
                              std::optional<sim::Payload> resp) {
                            finish(origin, seq, std::move(resp));
                          });
  });
}

void ReplicaNode::finish(gcs::MemberId origin, uint64_t seq,
                         std::optional<sim::Payload> response) {
  m_.applied.add(1);
  if (origin != group_.id()) return;
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  relay(std::move(p), std::move(response), m_.order_latency, seq);
}

void ReplicaNode::relay(Pending p, std::optional<sim::Payload> response,
                        telemetry::Histogram latency, uint64_t seq) {
  if (!response.has_value()) {
    reply(p.caller, service_->unavailable(p.request));
    return;
  }
  m_.replies.add(1);
  auto send = [this, p = std::move(p), response = std::move(*response),
               latency, seq]() mutable {
    int64_t now_us = sim().now().us;
    latency.record(now_us - p.since_us);
    if (seq != 0) {
      // The client-visible latency of an ordered request: intercepted here,
      // totally ordered, applied, answered.
      sim().telemetry().trace().complete(
          p.since_us, now_us, host_id(), m_.order_span, seq,
          p.request.empty() ? 0 : p.request[0]);
    }
    reply(p.caller, std::move(response));
  };
  stage(config_.relay_proc, std::move(send));
}

void ReplicaNode::stage(sim::Duration cost, std::function<void()> fn) {
  if (cost.us == 0) {
    fn();
  } else {
    execute(cost, std::move(fn));
  }
}

void ReplicaNode::fail_pending() {
  for (auto& [seq, p] : pending_) {
    (void)seq;
    reply(p.caller, service_->unavailable(p.request));
  }
  pending_.clear();
}

void ReplicaNode::on_view(const gcs::View& view) {
  if (m_.view_span.has_value()) {
    sim().telemetry().trace().instant(sim().now().us, host_id(), *m_.view_span,
                                      view.size(),
                                      view.members.empty() ? 0 : 1);
  }
  if (!view.members.empty()) {
    JLOG(kInfo, "rsm") << name() << " serving in view of " << view.size()
                       << " replica(s)";
    return;
  }
  JLOG(kWarn, "rsm") << name() << " out of service (excluded from view)";
  fail_pending();
  if (config_.auto_rejoin) {
    set_timer(config_.rejoin_delay, [this] {
      if (host_up()) group_.join();
    });
  }
}

void ReplicaNode::on_crash() {
  net::RpcNode::on_crash();
  pending_.clear();
  next_seq_ = 1;
  service_->on_crash();
}

ReplicaClient::ReplicaClient(sim::Network& net, sim::HostId host,
                             sim::Port port, Config config)
    : net::RpcNode(net, host, port, "rsm_client@" + net.host(host).name()),
      config_(std::move(config)) {
  if (config_.replicas.empty())
    throw std::invalid_argument("ReplicaClient: no replicas");
}

void ReplicaClient::request(sim::Payload payload, Handler done) {
  attempt(std::move(payload), std::move(done), config_.replicas.size());
}

void ReplicaClient::attempt(sim::Payload payload, Handler done,
                            size_t tries_left) {
  net::CallOptions options;
  options.timeout = config_.timeout;
  call(config_.replicas[current_], payload,
       [this, payload, done = std::move(done),
        tries_left](std::optional<sim::Payload> resp) mutable {
         if (resp.has_value() && !resp->empty()) {
           done(std::move(resp));
           return;
         }
         if (tries_left <= 1) {
           done(std::nullopt);
           return;
         }
         current_ = (current_ + 1) % config_.replicas.size();
         ++failovers_;
         JLOG(kInfo, "rsm") << name() << " failing over to replica "
                            << current_;
         attempt(std::move(payload), std::move(done), tries_left - 1);
       },
       options);
}

}  // namespace rsm
