// Cluster model: hosts with a single-CPU execution queue, connected by a
// shared-medium Fast-Ethernet hub (the paper's testbed topology).
//
// Two modelling choices matter for reproducing the paper's numbers:
//
//  1. Each host has ONE CPU (dual P-III in the paper, but the service stack
//     is effectively serial); work submitted via Host::execute() is serviced
//     FIFO. This is what makes protocol cost grow linearly with the number of
//     acknowledgements a head node must process. The queue is a per-host
//     ring of jobs; only its head is on the event heap (DESIGN.md §6).
//
//  2. The LAN is a hub, i.e. a single shared half-duplex medium: a frame
//     occupies the medium for its serialization time and a physical multicast
//     costs ONE medium slot regardless of the receiver count.
//
// Failure injection: hosts crash (fail-stop) and restart with a new
// incarnation; in-flight packets to a crashed host are dropped; queued CPU
// work of an old incarnation never runs. Partitions assign hosts to
// communication islands.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_fn.h"
#include "sim/fifo_ring.h"
#include "sim/payload.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace sim {

using HostId = uint32_t;
using Port = uint16_t;
constexpr HostId kInvalidHost = 0xffffffff;

struct Endpoint {
  HostId host = kInvalidHost;
  Port port = 0;
  auto operator<=>(const Endpoint&) const = default;
};

struct Packet {
  Endpoint src;
  Endpoint dst;
  Payload data;
};

/// Receives packets delivered to a bound (host, port).
class IPacketHandler {
 public:
  virtual ~IPacketHandler() = default;
  virtual void handle_packet(Packet packet) = 0;
  /// The host this handler lives on just crashed / restarted.
  virtual void handle_host_crash() {}
  virtual void handle_host_restart() {}
};

struct NetworkConfig {
  /// Shared-medium bandwidth (100 Mbit/s Fast Ethernet hub, half duplex).
  double bandwidth_bps = 100e6;
  /// Ethernet + IP + UDP framing overhead added to every frame.
  uint32_t frame_overhead_bytes = 54;
  /// Wire propagation + hub forwarding.
  Duration propagation = usec(30);
  /// Kernel/NIC stack cost charged per packet on each side (late-90s Linux
  /// on a 450 MHz P-III).
  Duration stack_latency = usec(250);
  /// Loopback/IPC latency for same-host delivery (no medium use).
  Duration local_ipc = usec(150);
  /// Random per-packet jitter bound (uniform in [0, jitter]).
  Duration jitter = usec(100);
  /// Probability that a frame is lost on the medium (receivers all miss a
  /// lost multicast frame -- it never made it onto the wire intact).
  double loss_rate = 0.0;
};

class Network;

class Host {
 public:
  Host(Network& net, HostId id, std::string name, double cpu_scale);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool up() const { return up_; }
  uint32_t incarnation() const { return incarnation_; }

  /// Bind a packet handler to a port. Throws if the port is taken.
  void bind(Port port, IPacketHandler* handler);
  void unbind(Port port);
  IPacketHandler* handler(Port port) const;

  /// Run `fn` after `cost` of CPU time, FIFO behind earlier work. Work
  /// queued when the host crashes never runs. The cost is scaled by this
  /// host's cpu_scale (1.0 = the paper's 450 MHz head node).
  void execute(Duration cost, EventFn fn);
  /// When the CPU finishes the work submitted so far.
  Time cpu_free_at() const { return cpu_free_at_; }

  /// Per-host storage that survives crashes (the head node's local disk).
  std::map<std::string, std::string>& disk() { return disk_; }

  /// Partition island this host currently belongs to (0 = default LAN).
  int partition() const { return partition_; }

 private:
  friend class Network;
  void crash();
  void restart();

  /// One unit of CPU work: when it completes, and the event sequence
  /// reserved for it at submission, so it fires exactly where an event
  /// scheduled at submission would.
  struct CpuJob {
    Time done_at;
    uint64_t seq = 0;
    EventFn fn;
  };
  /// Put the head of cpu_queue_ on the event heap.
  void arm_cpu_head();
  void run_cpu_head(uint32_t incarnation);

  Network& net_;
  HostId id_;
  std::string name_;
  double cpu_scale_;
  bool up_ = true;
  uint32_t incarnation_ = 1;
  Time cpu_free_at_{0};
  FifoRing<CpuJob> cpu_queue_;  ///< this incarnation's unfinished work
  int partition_ = 0;
  std::map<Port, IPacketHandler*> ports_;
  std::map<std::string, std::string> disk_;
};

class Network {
 public:
  Network(Simulation& sim, NetworkConfig config);

  Simulation& sim() { return sim_; }
  const NetworkConfig& config() const { return config_; }
  NetworkConfig& mutable_config() { return config_; }

  /// Add a host; cpu_scale scales CPU costs (0.5 = twice as fast as the
  /// paper's testbed head node).
  Host& add_host(const std::string& name, double cpu_scale = 1.0);

  Host& host(HostId id);
  const Host& host(HostId id) const;
  bool has_host(HostId id) const { return id < hosts_.size(); }
  size_t host_count() const { return hosts_.size(); }
  HostId host_by_name(const std::string& name) const;

  /// Unicast a packet. Loss, partitions, and crashed destinations drop it.
  void send(Packet packet);

  /// Physical multicast: one medium slot, delivered to every destination
  /// host (at `dst_port`) that is up and in the sender's partition. The
  /// sender's own host is skipped unless explicitly listed.
  void multicast(Endpoint src, Port dst_port, Payload data,
                 const std::vector<HostId>& dst_hosts);

  // -- failure injection ------------------------------------------------

  void crash_host(HostId id);
  void restart_host(HostId id);

  /// Assign hosts to partition islands; hosts in different islands cannot
  /// communicate. Island 0 is the default LAN.
  void set_partition(HostId id, int island);
  void clear_partitions();

  // -- counters (for tests and benches) ----------------------------------
  // Backed by the simulation's telemetry registry ("net.*" metrics), so
  // exporters and these accessors read the same cells.

  uint64_t frames_sent() const { return m_frames_sent_.value(); }
  uint64_t frames_dropped() const { return m_frames_dropped_.value(); }
  uint64_t bytes_sent() const { return m_bytes_sent_.value(); }

 private:
  Duration medium_transmit(size_t payload_bytes);
  void deliver(Packet packet, Time at);
  /// Reserve one serialization slot on the shared medium, recording how
  /// long the frame had to wait behind earlier traffic.
  Time acquire_medium(Duration tx);

  Simulation& sim_;
  NetworkConfig config_;
  std::vector<std::unique_ptr<Host>> hosts_;
  Time medium_busy_until_{0};
  telemetry::Counter m_frames_sent_;
  telemetry::Counter m_frames_dropped_;
  telemetry::Counter m_bytes_sent_;
  telemetry::Counter m_packets_delivered_;
  telemetry::Counter m_bytes_delivered_;
  telemetry::Histogram m_medium_wait_;
};

}  // namespace sim
