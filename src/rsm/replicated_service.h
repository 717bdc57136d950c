// Generic symmetric active/active replication for deterministic services.
//
// The paper's closing claim: "the generic symmetric active/active high
// availability model our approach is based on is applicable to any
// deterministic HPC system service, such as to the metadata server of the
// parallel virtual file system (PVFS)". This module is that generalization
// and the only symmetric active/active core in the tree: JOSHUA's PBS
// interceptor (joshua::Server) and the PVFS metadata server both run on it.
//
// A deterministic service implements IDeterministicService; ReplicaNode
// wraps one instance per head node. Per client request it runs the
// intercept CPU stage, lets the service admit the request, multicasts it
// AGREED through the group communication system, applies it identically at
// every replica, and answers from the contacted replica only (exactly-once
// output) after the relay stage. Joining replicas receive a snapshot before
// any post-join request.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "gcs/group_member.h"
#include "net/rpc.h"
#include "telemetry/hub.h"
#include "telemetry/metrics.h"

namespace rsm {

/// The ordered-command frame every replica group multicasts:
/// [u8 kCommandTag][u32 origin][u64 seq][bytes request]. Group messages
/// with any other first byte are service-originated ops
/// (IDeterministicService::apply_op).
constexpr uint8_t kCommandTag = 1;

/// One client request in total order.
struct Command {
  gcs::MemberId origin = sim::kInvalidHost;  ///< the replica the client contacted
  uint64_t seq = 0;       ///< origin-local id for routing the reply back
  sim::Payload request;   ///< the service request, opaque to the core
  uint64_t tag = 0;       ///< service-private, stamped by on_ordered()
  bool operator==(const Command&) const = default;
};
template <class Ar> void fields(Ar& ar, Command& cmd) {
  ar.tag(kCommandTag);
  ar(cmd.origin, cmd.seq, cmd.request);  // `tag` stays local
}

/// Where a client request came from, so an answer can find its way back.
struct Caller {
  sim::Endpoint from;
  uint64_t rpc_id = 0;
};

/// What IDeterministicService::admit() decided for one client request.
enum class Admit : uint8_t {
  kOrder,    ///< totally order it, apply everywhere, reply from here
  kLocal,    ///< a read the local replica may answer (ReplicaConfig::read_local)
  kHandled,  ///< the service answered, rejected or dropped it itself
};

/// A service suitable for symmetric active/active replication: request
/// application must be deterministic (same request sequence -> same state
/// and same responses at every replica).
class IDeterministicService {
 public:
  using ApplyDone = std::function<void(std::optional<sim::Payload>)>;

  virtual ~IDeterministicService() = default;

  /// Apply one request and produce the response. Must be deterministic;
  /// must not consult wall clocks or randomness outside the request.
  /// Services that override apply_async() need not implement it.
  virtual sim::Payload apply(const sim::Payload&) { return {}; }

  /// Asynchronous apply: `done` gets the response, or nullopt when the
  /// service could not produce one. `tag` is what on_ordered() stamped (0
  /// for local reads). `answers` is true when this replica's response goes
  /// back to the client: the contacted replica of an ordered request, or a
  /// local read. Elsewhere the core discards the response, so a service may
  /// skip building it (the state change must still happen). The default
  /// runs the synchronous apply() inline.
  virtual void apply_async(const sim::Payload& request, uint64_t /*tag*/,
                           bool /*answers*/, ApplyDone done) {
    done(apply(request));
  }

  /// Serialize the full service state.
  virtual sim::Payload snapshot() const = 0;

  /// Replace the state with a snapshot.
  virtual void install(const sim::Payload& snapshot) = 0;

  /// Read-only requests may optionally skip total ordering (served from
  /// local state). Default: everything is ordered.
  virtual bool is_read_only(const sim::Payload&) const { return false; }

  /// CPU cost of applying an ordered request on the calibrated testbed.
  virtual sim::Duration apply_cost(const sim::Payload&) const {
    return sim::msec(5);
  }

  /// CPU cost of answering a read off local state (zero: no CPU stage).
  virtual sim::Duration local_cost(const sim::Payload& request) const {
    return apply_cost(request);
  }

  /// Runs after the intercept stage, before anything else: reject or
  /// answer the request (via ReplicaNode::reply), or let the core order it.
  virtual Admit admit(const sim::Payload& request, const Caller&) {
    return is_read_only(request) ? Admit::kLocal : Admit::kOrder;
  }

  /// The answer a replica gives while it cannot serve a request (out of the
  /// group, or its pending request was failed on shutdown or exclusion).
  /// The default, an empty payload, makes ReplicaClient fail over at once.
  virtual sim::Payload unavailable(const sim::Payload&) const { return {}; }

  /// A command was delivered in total order, before its apply stage. The
  /// service may stamp `cmd.tag`; returning false holds the command, and the
  /// service hands it back later with ReplicaNode::resume().
  virtual bool on_ordered(Command& /*cmd*/) { return true; }

  /// A service-originated op (ReplicaNode::order) delivered in total order.
  virtual void apply_op(const sim::Payload&) {}

  /// The replica's host failed: drop volatile state.
  virtual void on_crash() {}
};

struct ReplicaConfig {
  sim::Port client_port = 19000;
  gcs::GroupConfig group;  ///< peers = replica hosts; group.port distinct
  /// Serve admitted local reads from local state without ordering (weaker
  /// consistency, lower latency -- the read-local ablation).
  bool read_local = false;
  sim::Duration request_proc = sim::msec(2);  ///< intercept stage
  sim::Duration relay_proc = sim::kDurationZero;  ///< reply stage
  /// Rejoin automatically after being excluded from a view (spurious
  /// suspicion). Off by default: the paper treats exclusion as shutdown.
  bool auto_rejoin = false;
  sim::Duration rejoin_delay = sim::seconds(2);
};

/// Registry handles and trace categories of the core's generic path. A
/// default-constructed counter still counts; other default handles no-op.
struct Telemetry {
  telemetry::Counter requests;     ///< every client request
  telemetry::Counter ordered;      ///< requests multicast for ordering
  telemetry::Counter applied;      ///< ordered applies finished here
  telemetry::Counter local_reads;  ///< reads answered off local state
  telemetry::Counter replies;      ///< answers sent after the relay stage
  telemetry::Histogram order_latency;  ///< ordered: intercept -> reply
  telemetry::Histogram local_latency;  ///< local read: intercept -> reply
  uint16_t order_span = 0;             ///< ordered intercept -> reply span
  std::optional<uint16_t> view_span;   ///< view-change instants
};
/// Registers the core's handles. ReplicaNode calls it once its group
/// member is built, so a service can keep its registry order.
using Instrument = std::function<Telemetry(telemetry::Hub&)>;
/// The rsm.* set the PVFS metadata service reports under.
Telemetry rsm_telemetry(telemetry::Hub& hub);

class ReplicaNode : public net::RpcNode {
 public:
  /// The node owns neither the service nor the network.
  ReplicaNode(sim::Network& net, sim::HostId host, ReplicaConfig config,
              IDeterministicService* service,
              const Instrument& instrument = rsm_telemetry);

  void start();     ///< join the replica group
  void shutdown();  ///< fail pending requests, leave gracefully

  bool in_service() const { return group_.is_member(); }
  const gcs::GroupMember& group() const { return group_; }
  gcs::GroupMember& group() { return group_; }

  /// Answer a request the service admitted as kHandled.
  void reply(const Caller& caller, sim::Payload response) {
    respond(caller.from, caller.rpc_id, std::move(response));
  }
  /// Multicast a service-originated op AGREED; it comes back through
  /// IDeterministicService::apply_op at every replica.
  void order(sim::Payload op);
  /// Run the apply stage of a command the service held in on_ordered().
  void resume(Command cmd);

  /// Per-replica numbers: each counter's count().
  const Telemetry& stats() const { return m_; }

  // net::RpcNode:
  void on_request(sim::Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override;
  void on_crash() override;

 private:
  /// A reply owed to a client: route plus the time the request left the
  /// intercept stage.
  struct Pending {
    Caller caller;
    int64_t since_us = 0;
    sim::Payload request;
  };

  void on_deliver(const gcs::Delivered& msg);
  void on_view(const gcs::View& view);
  void answer_locally(sim::Payload request, const Caller& caller);
  void finish(gcs::MemberId origin, uint64_t seq,
              std::optional<sim::Payload> response);
  /// The relay stage, then the answer (unavailable() when the apply gave
  /// none); records the intercept->reply latency and, for ordered requests
  /// (seq != 0), the trace span.
  void relay(Pending p, std::optional<sim::Payload> response,
             telemetry::Histogram latency, uint64_t seq);
  void fail_pending();
  /// Charge `cost` of CPU, then run `fn`; a zero-cost stage runs inline.
  void stage(sim::Duration cost, std::function<void()> fn);

  ReplicaConfig config_;
  IDeterministicService* service_;
  gcs::GroupMember group_;
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Pending> pending_;  ///< ordered requests by local seq
  Telemetry m_;
};

/// Client with transparent replica failover: the one failover loop behind
/// joshua::Client, fed::Router and PVFS clients. A replica that does not
/// answer within the timeout, or answers with an empty payload (the default
/// unavailable reply), is skipped for the next one.
class ReplicaClient : public net::RpcNode {
 public:
  struct Config {
    std::vector<sim::Endpoint> replicas;
    sim::Duration timeout = sim::seconds(5);
  };

  ReplicaClient(sim::Network& net, sim::HostId host, sim::Port port,
                Config config);

  using Handler = std::function<void(std::optional<sim::Payload>)>;
  /// Try each replica once, starting at the current one; nullopt when none
  /// answered.
  void request(sim::Payload payload, Handler done);

  /// Per-replica timeout: how fast a request fails over to the next one.
  void set_timeout(sim::Duration timeout) { config_.timeout = timeout; }
  /// Index of the replica the next request goes to first.
  size_t current() const { return current_; }
  uint64_t failovers() const { return failovers_; }

 protected:
  void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}

 private:
  void attempt(sim::Payload payload, Handler done, size_t tries_left);

  Config config_;
  size_t current_ = 0;
  uint64_t failovers_ = 0;
};

}  // namespace rsm
