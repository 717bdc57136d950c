#include "net/rpc.h"

#include "util/logging.h"

namespace net {
namespace {
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;
constexpr uint8_t kKindDatagram = 3;
}  // namespace

RpcNode::RpcNode(sim::Network& net, sim::HostId host, sim::Port port,
                 std::string name)
    : sim::Process(net, host, port, std::move(name)) {}

void RpcNode::call(sim::Endpoint dst, Payload request,
                   ResponseHandler on_response, CallOptions options) {
  uint64_t id = next_rpc_id_++;
  Pending pending;
  pending.dst = dst;
  pending.request = std::move(request);
  pending.handler = std::move(on_response);
  pending.options = options;
  pending.attempts_left = options.attempts;
  pending_.emplace(id, std::move(pending));
  transmit(id);
}

void RpcNode::transmit(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  --p.attempts_left;

  // The last attempt hands the request over, so a request nobody else
  // holds is framed in place.
  send(p.dst, wrap(p.attempts_left > 0 ? p.request : std::move(p.request),
                   kKindRequest, id));

  p.timer = set_timer(p.options.timeout, [this, id] { expire(id); });
}

void RpcNode::expire(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  if (it->second.attempts_left > 0) {
    transmit(id);
    return;
  }
  ResponseHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  handler(std::nullopt);
}

void RpcNode::fail_pending_calls() {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, p] : pending) {
    cancel_timer(p.timer);
    p.handler(std::nullopt);
  }
}

void RpcNode::respond(sim::Endpoint to, uint64_t rpc_id, Payload response) {
  send(to, wrap(std::move(response), kKindResponse, rpc_id));
}

Payload RpcNode::frame_datagram(Payload inner) {
  return wrap(std::move(inner), kKindDatagram);
}

void RpcNode::on_packet(sim::Packet packet) {
  // Each branch drops the frame before handing its body on, so the body is
  // its block's only owner and a handler that relays it (respond) frames it
  // in place.
  try {
    Reader r(packet.data);
    uint8_t kind = r.u8();
    switch (kind) {
      case kKindRequest: {
        uint64_t id = r.u64();
        Payload body = r.bytes();
        packet.data = {};
        on_request(std::move(body), packet.src, id);
        break;
      }
      case kKindResponse: {
        uint64_t id = r.u64();
        Payload body = r.bytes();
        packet.data = {};
        auto it = pending_.find(id);
        if (it == pending_.end()) return;  // late or duplicate response
        cancel_timer(it->second.timer);
        ResponseHandler handler = std::move(it->second.handler);
        pending_.erase(it);
        handler(std::move(body));
        break;
      }
      case kKindDatagram: {
        sim::Packet inner;
        inner.src = packet.src;
        inner.dst = packet.dst;
        inner.data = r.bytes();
        packet.data = {};
        on_datagram(std::move(inner));
        break;
      }
      default:
        JLOG(kWarn, "rpc") << name() << ": unknown frame kind "
                           << static_cast<int>(kind);
    }
  } catch (const WireError& e) {
    JLOG(kWarn, "rpc") << name() << ": malformed packet: " << e.what();
  }
}

void RpcNode::on_crash() {
  // In-flight calls die with the process; handlers must not fire post-crash.
  for (auto& [id, p] : pending_) cancel_timer(p.timer);
  pending_.clear();
}

}  // namespace net
