#include "sim/network.h"

#include <stdexcept>

#include "util/logging.h"

namespace sim {

Host::Host(Network& net, HostId id, std::string name, double cpu_scale)
    : net_(net), id_(id), name_(std::move(name)), cpu_scale_(cpu_scale) {}

void Host::bind(Port port, IPacketHandler* handler) {
  if (handler == nullptr) throw std::invalid_argument("bind: null handler");
  auto [it, inserted] = ports_.emplace(port, handler);
  (void)it;
  if (!inserted)
    throw std::runtime_error("port " + std::to_string(port) +
                             " already bound on host " + name_);
}

void Host::unbind(Port port) { ports_.erase(port); }

IPacketHandler* Host::handler(Port port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : it->second;
}

void Host::execute(Duration cost, EventFn fn) {
  if (!up_) return;  // work submitted on a dead host is lost
  Simulation& sim = net_.sim();
  Duration scaled{static_cast<int64_t>(static_cast<double>(cost.us) *
                                       cpu_scale_)};
  Time start = std::max(sim.now(), cpu_free_at_);
  cpu_free_at_ = start + scaled;
  cpu_queue_.push_back(
      CpuJob{cpu_free_at_, sim.reserve_sequence(), std::move(fn)});
  if (cpu_queue_.size() == 1) arm_cpu_head();
}

void Host::arm_cpu_head() {
  const CpuJob& job = cpu_queue_.front();
  net_.sim().schedule_reserved(
      job.done_at, job.seq,
      [this, incarnation = incarnation_] { run_cpu_head(incarnation); });
}

void Host::run_cpu_head(uint32_t incarnation) {
  // A crash since arming emptied the queue this head belonged to.
  if (!up_ || incarnation_ != incarnation) return;
  EventFn fn = std::move(cpu_queue_.front().fn);
  cpu_queue_.pop_front();
  if (!cpu_queue_.empty()) arm_cpu_head();
  fn();
}

void Host::crash() {
  if (!up_) return;
  up_ = false;
  Simulation& sim = net_.sim();
  // The armed head no-ops when it fires. Every job behind it becomes a
  // no-op event at its reserved key, so the event count and order are
  // those of one event per job.
  for (size_t i = 1; i < cpu_queue_.size(); ++i)
    sim.schedule_reserved(cpu_queue_[i].done_at, cpu_queue_[i].seq, [] {});
  cpu_queue_.clear();
  cpu_free_at_ = sim.now();
  JLOG(kInfo, "sim") << "host " << name_ << " crashed";
  for (auto& [port, handler] : ports_) {
    (void)port;
    handler->handle_host_crash();
  }
}

void Host::restart() {
  if (up_) return;
  up_ = true;
  ++incarnation_;
  cpu_free_at_ = net_.sim().now();
  JLOG(kInfo, "sim") << "host " << name_ << " restarted (incarnation "
                     << incarnation_ << ")";
  for (auto& [port, handler] : ports_) {
    (void)port;
    handler->handle_host_restart();
  }
}

Network::Network(Simulation& sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  telemetry::Registry& m = sim_.telemetry().metrics();
  m_frames_sent_ = m.counter("net.frames_sent");
  m_frames_dropped_ = m.counter("net.frames_dropped");
  m_bytes_sent_ = m.counter("net.bytes_sent");
  m_packets_delivered_ = m.counter("net.packets_delivered");
  m_bytes_delivered_ = m.counter("net.bytes_delivered");
  m_medium_wait_ = m.histogram("net.medium_wait_us");
}

Host& Network::add_host(const std::string& name, double cpu_scale) {
  auto id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(*this, id, name, cpu_scale));
  return *hosts_.back();
}

Host& Network::host(HostId id) {
  if (id >= hosts_.size()) throw std::out_of_range("no such host");
  return *hosts_[id];
}

const Host& Network::host(HostId id) const {
  if (id >= hosts_.size()) throw std::out_of_range("no such host");
  return *hosts_[id];
}

HostId Network::host_by_name(const std::string& name) const {
  for (const auto& h : hosts_)
    if (h->name() == name) return h->id();
  throw std::out_of_range("no host named " + name);
}

Duration Network::medium_transmit(size_t payload_bytes) {
  double bits =
      static_cast<double>(payload_bytes + config_.frame_overhead_bytes) * 8.0;
  return Duration{static_cast<int64_t>(bits / config_.bandwidth_bps * 1e6)};
}

void Network::deliver(Packet packet, Time at) {
  sim_.schedule_at(at, [this, packet = std::move(packet)]() mutable {
    Host& dst = host(packet.dst.host);
    if (!dst.up()) return;
    IPacketHandler* handler = dst.handler(packet.dst.port);
    if (handler == nullptr) {
      JLOG(kDebug, "sim") << "packet to unbound port " << packet.dst.port
                          << " on " << dst.name() << " dropped";
      return;
    }
    m_packets_delivered_.add(1);
    m_bytes_delivered_.add(packet.data.size());
    handler->handle_packet(std::move(packet));
  });
}

Time Network::acquire_medium(Duration tx) {
  Time start = std::max(sim_.now(), medium_busy_until_);
  m_medium_wait_.record((start - sim_.now()).us);
  medium_busy_until_ = start + tx;
  return medium_busy_until_;
}

void Network::send(Packet packet) {
  Host& src = host(packet.src.host);
  if (!src.up()) return;
  if (!has_host(packet.dst.host)) {
    m_frames_dropped_.add(1);
    return;
  }
  Host& dst = host(packet.dst.host);

  if (packet.src.host == packet.dst.host) {
    // Loopback: no medium, just IPC latency.
    deliver(std::move(packet), sim_.now() + config_.local_ipc);
    return;
  }

  m_frames_sent_.add(1);
  m_bytes_sent_.add(packet.data.size() + config_.frame_overhead_bytes);

  if (!dst.up() || dst.partition() != src.partition()) {
    m_frames_dropped_.add(1);
    return;  // the frame still left the sender; receiver never sees it
  }
  if (config_.loss_rate > 0.0 && sim_.rng().chance(config_.loss_rate)) {
    m_frames_dropped_.add(1);
    return;
  }

  Duration tx = medium_transmit(packet.data.size());
  Duration jitter{config_.jitter.us > 0
                      ? sim_.rng().uniform(0, config_.jitter.us)
                      : 0};
  Time arrival = acquire_medium(tx) + config_.propagation +
                 config_.stack_latency * 2 + jitter;
  deliver(std::move(packet), arrival);
}

void Network::multicast(Endpoint src, Port dst_port, Payload data,
                        const std::vector<HostId>& dst_hosts) {
  Host& sender = host(src.host);
  if (!sender.up()) return;

  // Local copies short-circuit the medium.
  bool used_medium = false;
  Duration tx = medium_transmit(data.size());
  Time medium_arrival{0};

  for (HostId dst_id : dst_hosts) {
    if (!has_host(dst_id)) continue;
    Packet packet{src, Endpoint{dst_id, dst_port}, data};
    if (dst_id == src.host) {
      deliver(std::move(packet), sim_.now() + config_.local_ipc);
      continue;
    }
    if (!used_medium) {
      // One slot on the shared medium covers every remote receiver.
      used_medium = true;
      m_frames_sent_.add(1);
      m_bytes_sent_.add(data.size() + config_.frame_overhead_bytes);
      if (config_.loss_rate > 0.0 && sim_.rng().chance(config_.loss_rate)) {
        m_frames_dropped_.add(1);
        return;  // the whole physical multicast is lost
      }
      medium_arrival = acquire_medium(tx) + config_.propagation +
                       config_.stack_latency * 2;
    }
    Host& dst = host(dst_id);
    if (!dst.up() || dst.partition() != sender.partition()) continue;
    Duration jitter{config_.jitter.us > 0
                        ? sim_.rng().uniform(0, config_.jitter.us)
                        : 0};
    deliver(std::move(packet), medium_arrival + jitter);
  }
}

void Network::crash_host(HostId id) { host(id).crash(); }
void Network::restart_host(HostId id) { host(id).restart(); }

void Network::set_partition(HostId id, int island) {
  host(id).partition_ = island;
}

void Network::clear_partitions() {
  for (auto& h : hosts_) h->partition_ = 0;
}

}  // namespace sim
