#include "net/rpc.h"

#include <gtest/gtest.h>

namespace {

/// Server that answers requests with a transformation, optionally delayed
/// or silently dropped.
class TestServer : public net::RpcNode {
 public:
  TestServer(sim::Network& net, sim::HostId host, sim::Port port)
      : net::RpcNode(net, host, port, "server") {}

  void on_request(sim::Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override {
    ++requests;
    if (drop_next) {
      drop_next = false;
      return;
    }
    std::vector<uint8_t> bytes(request.begin(), request.end());
    bytes.push_back(0xff);
    sim::Payload reply = sim::Payload(bytes.begin(), bytes.end());
    if (delay.us > 0) {
      set_timer(delay, [this, from, rpc_id, reply] {
        respond(from, rpc_id, reply);
      });
    } else {
      respond(from, rpc_id, reply);
    }
  }
  int requests = 0;
  bool drop_next = false;
  sim::Duration delay{0};
};

class TestClient : public net::RpcNode {
 public:
  TestClient(sim::Network& net, sim::HostId host, sim::Port port)
      : net::RpcNode(net, host, port, "client") {}
  void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : sim_(1),
        net_(sim_, sim::NetworkConfig{}),
        server_host_(net_.add_host("s").id()),
        client_host_(net_.add_host("c").id()),
        server_(net_, server_host_, 100),
        client_(net_, client_host_, 101) {}

  sim::Simulation sim_;
  sim::Network net_;
  sim::HostId server_host_, client_host_;
  TestServer server_;
  TestClient client_;
};

TEST_F(RpcTest, RequestResponse) {
  std::optional<sim::Payload> got;
  client_.call({server_host_, 100}, {1, 2},
               [&](std::optional<sim::Payload> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (sim::Payload{1, 2, 0xff}));
}

TEST_F(RpcTest, ConcurrentCallsRouteCorrectly) {
  std::vector<sim::Payload> replies(10);
  for (uint8_t i = 0; i < 10; ++i) {
    client_.call({server_host_, 100}, {i},
                 [&replies, i](std::optional<sim::Payload> r) {
                   ASSERT_TRUE(r.has_value());
                   replies[i] = *r;
                 });
  }
  sim_.run();
  for (uint8_t i = 0; i < 10; ++i)
    EXPECT_EQ(replies[i], (sim::Payload{i, 0xff}));
}

TEST_F(RpcTest, TimeoutYieldsNullopt) {
  net_.crash_host(server_host_);
  bool called = false;
  std::optional<sim::Payload> got{sim::Payload{9}};
  net::CallOptions options;
  options.timeout = sim::msec(100);
  client_.call({server_host_, 100}, {1},
               [&](std::optional<sim::Payload> r) {
                 called = true;
                 got = std::move(r);
               },
               options);
  sim_.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

TEST_F(RpcTest, RetrySucceedsAfterDrop) {
  server_.drop_next = true;
  net::CallOptions options;
  options.timeout = sim::msec(100);
  options.attempts = 2;
  std::optional<sim::Payload> got;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) { got = std::move(r); },
               options);
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(server_.requests, 2);
}

TEST_F(RpcTest, DeferredResponseArrives) {
  server_.delay = sim::msec(50);
  std::optional<sim::Payload> got;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
}

TEST_F(RpcTest, LateResponseAfterTimeoutIgnored) {
  server_.delay = sim::msec(500);
  net::CallOptions options;
  options.timeout = sim::msec(100);
  int calls = 0;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) {
                 ++calls;
                 EXPECT_FALSE(r.has_value());
               },
               options);
  sim_.run();
  EXPECT_EQ(calls, 1) << "handler fires exactly once";
}

TEST_F(RpcTest, ClientCrashDropsPendingHandlers) {
  server_.delay = sim::msec(50);
  bool called = false;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload>) { called = true; });
  net_.crash_host(client_host_);
  sim_.run();
  EXPECT_FALSE(called) << "no callbacks after crash";
}

TEST_F(RpcTest, FailPendingCallsFiresNullopt) {
  server_.delay = sim::seconds(10);
  int calls = 0;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) {
                 ++calls;
                 EXPECT_FALSE(r.has_value());
               });
  sim_.run_for(sim::msec(10));
  client_.fail_pending_calls();
  sim_.run_for(sim::seconds(20));
  EXPECT_EQ(calls, 1);
}

TEST_F(RpcTest, MalformedPacketIgnored) {
  client_.send({server_host_, 100}, {0x77, 0x01});  // unknown frame kind
  sim_.run();
  EXPECT_EQ(server_.requests, 0);
}

}  // namespace
