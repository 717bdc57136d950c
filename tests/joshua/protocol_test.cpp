#include "joshua/protocol.h"

#include <gtest/gtest.h>

#include "rsm/replicated_service.h"

namespace {

using namespace joshua;

// An intercepted PBS command travels in the rsm core's command frame,
// whose tag is GroupOp::kCommand.
TEST(JoshuaProtocol, GroupCommandRoundTrip) {
  rsm::Command cmd{3, 99, {1, 2, 3}, 0};
  sim::Payload buf = net::encode(cmd);
  EXPECT_EQ(net::peek_tag<GroupOp>(buf), GroupOp::kCommand);
  rsm::Command back = net::decode<rsm::Command>(buf);
  EXPECT_EQ(back.origin, 3u);
  EXPECT_EQ(back.seq, 99u);
  EXPECT_EQ(back.request, (sim::Payload{1, 2, 3}));
}

TEST(JoshuaProtocol, MutexMessagesRoundTrip) {
  GroupMutexReq req{42, 7};
  sim::Payload buf = net::encode(req);
  EXPECT_EQ(net::peek_tag<GroupOp>(buf), GroupOp::kMutexReq);
  GroupMutexReq back = net::decode<GroupMutexReq>(buf);
  EXPECT_EQ(back.job, 42u);
  EXPECT_EQ(back.head, 7u);

  GroupMutexDone done{42, 271, 7};
  GroupMutexDone db = net::decode<GroupMutexDone>(net::encode(done));
  EXPECT_EQ(db.job, 42u);
  EXPECT_EQ(db.exit_code, 271);
  EXPECT_EQ(db.head, 7u);
}

TEST(JoshuaProtocol, PluginMessagesRoundTrip) {
  JMutexRequest req{11, 2};
  JMutexRequest rb = net::decode<JMutexRequest>(net::encode(req));
  EXPECT_EQ(rb.job, 11u);
  EXPECT_EQ(rb.head, 2u);

  JDoneRequest done{11, 5};
  JDoneRequest db = net::decode<JDoneRequest>(net::encode(done));
  EXPECT_EQ(db.job, 11u);
  EXPECT_EQ(db.exit_code, 5);

  for (bool won : {true, false}) {
    JMutexResponse resp{won};
    EXPECT_EQ(net::decode<JMutexResponse>(net::encode(resp)).won, won);
  }
}

TEST(JoshuaProtocol, PluginOpsDistinctFromPbsOps) {
  // The joshua server demuxes by first byte; plugin ops must never collide
  // with PBS ops.
  EXPECT_GT(static_cast<uint8_t>(PluginOp::kJMutex), 100);
  EXPECT_GT(static_cast<uint8_t>(PluginOp::kJDone), 100);
}

TEST(JoshuaProtocol, CommandLogRoundTrip) {
  CommandLog log;
  log.requests = {{1}, {2, 2}, {3, 3, 3}};
  CommandLog back = net::decode<CommandLog>(net::encode(log));
  ASSERT_EQ(back.requests.size(), 3u);
  EXPECT_EQ(back.requests[2], (sim::Payload{3, 3, 3}));
}

TEST(JoshuaProtocol, TransferWrapperDistinguishesKinds) {
  sim::Payload body{9, 8, 7};
  TransferEnvelope env = net::decode<TransferEnvelope>(
      net::encode(TransferEnvelope{TransferKind::kSnapshot, body, {}}));
  EXPECT_EQ(env.kind, TransferKind::kSnapshot);
  EXPECT_EQ(env.body, body);
  EXPECT_TRUE(env.mutexes.empty());
  sim::Payload mutexes{4, 2};
  TransferEnvelope env2 =
      net::decode<TransferEnvelope>(net::encode(
          TransferEnvelope{TransferKind::kReplayLog, body, mutexes}));
  EXPECT_EQ(env2.kind, TransferKind::kReplayLog);
  EXPECT_EQ(env2.body, body);
  EXPECT_EQ(env2.mutexes, mutexes);
}

TEST(JoshuaProtocol, MutexTableRoundTrip) {
  MutexTable table;
  MutexEntry running;
  running.job = 7;
  running.max_real = 2;
  running.claims = {MutexClaim{31, 3}, MutexClaim{32, 4}};
  MutexEntry finished;
  finished.job = 9;
  finished.done = true;
  finished.winner_mom = 33;
  finished.exit_code = -11;
  table.entries = {running, finished};
  table.terminal = {2, 9};
  table.revoked = {34};

  MutexTable back = net::decode<MutexTable>(net::encode(table));
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].job, 7u);
  EXPECT_EQ(back.entries[0].max_real, 2u);
  EXPECT_FALSE(back.entries[0].done);
  ASSERT_EQ(back.entries[0].claims.size(), 2u);
  EXPECT_EQ(back.entries[0].claims[0].mom, 31u);
  EXPECT_EQ(back.entries[0].claims[0].head, 3u);
  EXPECT_EQ(back.entries[1].job, 9u);
  EXPECT_TRUE(back.entries[1].done);
  EXPECT_EQ(back.entries[1].winner_mom, 33u);
  EXPECT_EQ(back.entries[1].exit_code, -11);
  EXPECT_TRUE(back.entries[1].claims.empty());
  EXPECT_EQ(back.terminal, (std::vector<pbs::JobId>{2, 9}));
  EXPECT_EQ(back.revoked, (std::vector<sim::HostId>{34}));

  MutexTable empty = net::decode<MutexTable>(net::encode(MutexTable{}));
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_TRUE(empty.terminal.empty());
}

TEST(JoshuaProtocol, MalformedInputsThrow) {
  EXPECT_THROW(net::peek_tag<GroupOp>(sim::Payload{}), net::WireError);
  EXPECT_THROW(net::decode<rsm::Command>(net::encode(GroupMutexReq{1, 2})),
               net::WireError);
  sim::Payload truncated = net::encode(rsm::Command{1, 2, {3, 4, 5}, 0});
  truncated.resize(truncated.size() - 2);
  EXPECT_THROW(net::decode<rsm::Command>(truncated), net::WireError);
  EXPECT_THROW(net::decode<TransferEnvelope>(sim::Payload{1}),
               net::WireError);
}

}  // namespace
