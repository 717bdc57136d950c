// Actor base class: a service process bound to (host, port).
//
// Subclasses implement on_packet(); the base manages port binding, timers
// (auto-cancelled on host crash), CPU-charged message handling, and the
// crash/restart lifecycle. Process state persists across a host restart in
// the C++ object -- subclasses that model real daemons reset their volatile
// state in on_restart() and reload anything durable from host().disk().
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "sim/network.h"
#include "sim/simulation.h"

namespace sim {

using TimerId = EventId;

class Process : public IPacketHandler {
 public:
  /// Binds to (host, port) immediately.
  Process(Network& net, HostId host, Port port, std::string name);
  ~Process() override;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Endpoint endpoint() const { return {host_id_, port_}; }
  HostId host_id() const { return host_id_; }
  const std::string& name() const { return name_; }
  Network& net() { return net_; }
  Simulation& sim() { return net_.sim(); }
  Host& host() { return net_.host(host_id_); }
  bool host_up() const { return net_.host(host_id_).up(); }

  // -- messaging ---------------------------------------------------------

  void send(Endpoint dst, Payload data);
  void multicast(Port dst_port, Payload data, const std::vector<HostId>& dsts);

  // -- timers --------------------------------------------------------------

  /// One-shot timer; auto-cancelled if the host crashes first.
  TimerId set_timer(Duration delay, EventFn fn);
  void cancel_timer(TimerId id);

  /// Charge CPU time on this host, then run fn (discarded on crash).
  void execute(Duration cost, EventFn fn) {
    host().execute(cost, std::move(fn));
  }

  // -- lifecycle (overridable) ----------------------------------------------

  /// Delivered packets arrive here (already past the host-up checks).
  virtual void on_packet(Packet packet) = 0;
  /// Host failed (fail-stop). Timers are already cancelled.
  virtual void on_crash() {}
  /// Host came back. Volatile state should be re-initialized here.
  virtual void on_restart() {}

  // IPacketHandler:
  void handle_packet(Packet packet) final;
  void handle_host_crash() final;
  void handle_host_restart() final;

 private:
  Network& net_;
  HostId host_id_;
  Port port_;
  std::string name_;
  std::set<TimerId> timers_;
};

}  // namespace sim
