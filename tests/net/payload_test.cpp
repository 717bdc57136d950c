// Payload storage and in-place framing: a header goes into the free bytes
// before a body only when no other Payload can see them.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "net/rpc.h"
#include "net/wire.h"

namespace {

using sim::Payload;

constexpr uint8_t kResponse = 2;  // net::RpcNode's response frame kind
constexpr size_t kFrameHeader = 13;  // kind u8, rpc id u64, body length u32

Payload body_of(const std::string& text) { return net::encode(text); }

TEST(PayloadPrepend, SoleOwnerWritesInPlace) {
  Payload body = body_of("the job table");
  const Payload golden = net::encode(kResponse, uint64_t{7}, body);
  const uint8_t* at = body.data();
  Payload frame = net::wrap(std::move(body), kResponse, uint64_t{7});
  EXPECT_EQ(frame.data(), at - kFrameHeader) << "the body was copied";
  EXPECT_EQ(frame, golden);
}

TEST(PayloadPrepend, RetainedCopyForcesACopy) {
  Payload body = body_of("kept by a retry");
  const Payload keep = body;
  const Payload keep_bytes(keep.begin(), keep.end());
  const Payload golden = net::encode(kResponse, uint64_t{9}, keep);
  Payload frame = net::wrap(std::move(body), kResponse, uint64_t{9});
  EXPECT_EQ(frame, golden);
  EXPECT_NE(frame.data() + kFrameHeader, keep.data());
  EXPECT_EQ(keep, keep_bytes);
}

TEST(PayloadPrepend, LiveOuterFrameIsNotOverwritten) {
  // A body sliced out of a frame that is still alive: re-framing it in
  // place would overwrite the outer frame's header.
  const Payload outer = net::encode(uint8_t{1}, uint64_t{5}, body_of("x"));
  const Payload outer_bytes(outer.begin(), outer.end());
  net::Reader r(outer);
  r.u8();
  r.u64();
  Payload inner = r.bytes();
  const Payload golden = net::encode(kResponse, uint64_t{6}, inner);
  Payload frame = net::wrap(std::move(inner), kResponse, uint64_t{6});
  EXPECT_EQ(frame, golden);
  EXPECT_EQ(outer, outer_bytes);
  EXPECT_NE(frame.data(), outer.data());
}

TEST(PayloadPrepend, SoleOwnedSliceReusesTheOuterHeader) {
  Payload outer = net::encode(uint8_t{1}, uint64_t{5}, body_of("relayed"));
  const uint8_t* header = outer.data();
  net::Reader r(outer);
  r.u8();
  r.u64();
  Payload inner = r.bytes();
  outer = {};  // the frame is consumed; only the body remains
  const Payload golden = net::encode(kResponse, uint64_t{6}, inner);
  Payload frame = net::wrap(std::move(inner), kResponse, uint64_t{6});
  EXPECT_EQ(frame.data(), header);
  EXPECT_EQ(frame, golden);
}

TEST(PayloadPrepend, NoHeadroomOrEmptyBodyCopiesOnce) {
  Payload bare{1, 2, 3};  // built from bytes, not by a Writer: no headroom
  const uint8_t* at = bare.data();
  const Payload golden = net::encode(kResponse, uint64_t{3}, bare);
  Payload frame = net::wrap(std::move(bare), kResponse, uint64_t{3});
  EXPECT_EQ(frame, golden);
  EXPECT_NE(frame.data() + kFrameHeader, at);

  const Payload empty_golden = net::encode(kResponse, uint64_t{4}, Payload{});
  Payload empty_frame = net::wrap(Payload{}, kResponse, uint64_t{4});
  EXPECT_EQ(empty_frame, empty_golden);
  // The copy has headroom of its own, so the frame can be wrapped again.
  const uint8_t* inner = empty_frame.data();
  Payload outer = net::wrap(std::move(empty_frame), uint8_t{3});
  EXPECT_EQ(outer.data() + 5, inner);
}

TEST(PayloadPrepend, HeaderLargerThanHeadroomIsRefused) {
  EXPECT_THROW(net::wrap(body_of("x"), uint64_t{1}, uint64_t{2}),
               std::length_error);
}

TEST(PayloadStorage, GrownWriterKeepsItsHeadroom) {
  net::Writer w;  // no size hint: grows, copying what it holds
  for (uint32_t i = 0; i < 100; ++i) w(i);
  Payload p = w.take();
  ASSERT_EQ(p.size(), 400u);
  net::Reader r(p);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(r.u32(), i);
  const Payload golden = net::encode(kResponse, uint64_t{1}, p);
  const uint8_t* at = p.data();
  Payload frame = net::wrap(std::move(p), kResponse, uint64_t{1});
  EXPECT_EQ(frame.data(), at - kFrameHeader);
  EXPECT_EQ(frame, golden);
  EXPECT_EQ(net::Writer().take(), Payload{});
}

/// Answers each request with `reply`, remembering where its bytes live.
class Server : public net::RpcNode {
 public:
  Server(sim::Network& net, sim::HostId host, sim::Port port)
      : net::RpcNode(net, host, port, "server") {}
  void on_request(Payload, sim::Endpoint from, uint64_t rpc_id) override {
    Payload reply = body_of(std::string(200, 'j'));
    sent = reply.data();
    golden_body = Payload(reply.begin(), reply.end());
    respond(from, rpc_id, std::move(reply));
  }
  const uint8_t* sent = nullptr;
  Payload golden_body;
};

/// Forwards each request to the server and relays its answer back.
class Relay : public net::RpcNode {
 public:
  Relay(sim::Network& net, sim::HostId host, sim::Port port,
        sim::Endpoint server)
      : net::RpcNode(net, host, port, "relay"), server_(server) {}
  void on_request(Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override {
    call(server_, std::move(request),
         [this, from, rpc_id](std::optional<Payload> response) {
           if (response) respond(from, rpc_id, std::move(*response));
         });
  }

 private:
  sim::Endpoint server_;
};

/// Sends one raw request frame and keeps the raw frame that comes back.
class RawClient : public sim::Process {
 public:
  using sim::Process::Process;
  using sim::Process::send;
  void on_packet(sim::Packet packet) override { got = std::move(packet.data); }
  Payload got;
};

TEST(PayloadRelay, RelayedResponseKeepsTheServersBytes) {
  sim::Simulation s(1);
  sim::Network net(s, sim::NetworkConfig{});
  const sim::HostId a = net.add_host("server").id();
  const sim::HostId b = net.add_host("relay").id();
  const sim::HostId c = net.add_host("client").id();
  Server server(net, a, 100);
  Relay relay(net, b, 100, {a, 100});
  RawClient client(net, c, 100, "client");
  client.send({b, 100}, net::encode(uint8_t{1}, uint64_t{42}, body_of("q")));
  s.run();
  ASSERT_NE(server.sent, nullptr);
  EXPECT_EQ(client.got, net::encode(kResponse, uint64_t{42},
                                    server.golden_body));
  // Server -> relay -> client in the block the server encoded.
  EXPECT_EQ(client.got.data() + kFrameHeader, server.sent);
}

}  // namespace
