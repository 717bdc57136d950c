// Golden-byte wire tests: the wire contract of every message type.
//
// Each message's encoded bytes are simulated behaviour -- the network model
// charges wire time by encoded size -- so every layout is pinned here to a
// checked-in hex string. A fixed instance of each type must encode to its
// golden string, and the golden string must decode back to the instance.
// A layout change shows up as a failed string here, never silently.
#include <gtest/gtest.h>

#include <string>

#include "codec/samples.h"
#include "gcs/engine_token.h"
#include "gcs/messages.h"
#include "joshua/protocol.h"
#include "pbs/pbs_harness.h"
#include "pbs/protocol.h"
#include "pvfs/metadata.h"
#include "rsm/replicated_service.h"

namespace {

using codec_samples::from_hex;
using codec_samples::to_hex;
namespace s = codec_samples;

/// `instance` must encode to `hex`, and `hex` must decode back to
/// `instance`.
template <class T>
void expect_golden(const char* name, const T& instance, const char* hex) {
  SCOPED_TRACE(name);
  EXPECT_EQ(to_hex(net::encode(instance)), hex);
  try {
    EXPECT_TRUE(net::decode<T>(from_hex(hex)) == instance)
        << "decoded value differs";
  } catch (const std::exception& e) {
    ADD_FAILURE() << "golden bytes do not decode: " << e.what();
  }
}

// -- gcs ----------------------------------------------------------------------

TEST(WireGolden, GcsMessages) {
  expect_golden("gcs.data", s::data_wire(),
                "01030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000200000009000000000000"
                "002a0000000000000002000000dead");
  expect_golden("gcs.cut", s::cut_wire(false),
                "02030000004d000000000000000c00000000000000020000000000000005"
                "0000000000000001000000070000000000000000");
  expect_golden("gcs.cut.periodic", s::cut_wire(true),
                "02030000004d000000000000000c00000000000000020000000000000005"
                "0000000000000001000000070000000000000001");
  expect_golden("gcs.nack", s::nack_wire(),
                "03030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000200000001000000040000"
                "0000000000020000000700000000000000");
  expect_golden("gcs.retransmit", s::retransmit_wire(),
                "04030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000200000002000000090000"
                "00000000002a0000000000000002000000dead0200000009000000000000"
                "002a0000000000000002000000dead");
  expect_golden("gcs.join_req", s::join_req_wire(),
                "05030000004d000000000000000c00000000000000020000000000000005"
                "0000000000000001000000070000000000000005000000");
  expect_golden("gcs.leave", s::leave_wire(),
                "06030000004d000000000000000c00000000000000020000000000000005"
                "00000000000000010000000700000000000000");
  expect_golden("gcs.vc_propose", s::vc_propose_wire(),
                "07030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000900000000000000010000"
                "0003000000000000000100000002000000");
  expect_golden("gcs.vc_ack", s::vc_ack_wire(),
                "08030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000900000000000000010000"
                "00010000000200000009000000000000002a0000000000000002000000de"
                "ad020000000707");
  expect_golden("gcs.vc_commit", s::vc_commit_wire(),
                "09030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000900000000000000010000"
                "000300000000000000010000000200000002000000000000000100000001"
                "00000002000000010000000200000009000000000000002a000000000000"
                "0002000000dead0300000000000000030000000000000001000000080000"
                "0000000000020000000000000000000000010000000100000005");
  expect_golden("gcs.state_req", s::state_req_wire(),
                "0a030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000400000000000000020000"
                "00");
  expect_golden("gcs.state", s::state_wire(),
                "0b030000004d000000000000000c00000000000000020000000000000005"
                "000000000000000100000007000000000000000400000000000000020000"
                "000400000001020304");
  expect_golden("gcs.engine", s::engine_wire(),
                "0c030000004d000000000000000c00000000000000020000000000000005"
                "00000000000000010000000700000000000000020000000102");
}

/// The dispatcher prices a cut by its periodic flag before decoding it, so
/// the peek must agree with the pinned cut layouts above.
TEST(WireGolden, CutPeriodicFlagPeek) {
  for (bool periodic : {false, true}) {
    sim::Payload cut = net::encode(s::cut_wire(periodic));
    EXPECT_EQ(gcs::cut_is_periodic(cut), periodic);
  }
}

// -- pbs ----------------------------------------------------------------------

TEST(WireGolden, PbsRequests) {
  expect_golden("pbs.submit", s::submit_request(),
                "010b000000636c696d6174652d73696d05000000616c696365040000006c"
                "6f6e670300000000d2496b00000000804a5d0500000000feffffffffffff"
                "ff020000001b00000023212f62696e2f73680a6d706972756e202e2f636c"
                "696d6174650a030000006770750200000002000000696206000000626967"
                "6d656d04000000ffffffffffffffff1700000000000000");
  expect_golden("pbs.stat", s::stat_request(),
                "02050000000000000000");
  expect_golden("pbs.stat_quiet", s::quiet_stat_request(),
                "08050000000000000000");
  expect_golden("pbs.delete", pbs::DeleteRequest{7},
                "030700000000000000");
  expect_golden("pbs.signal", pbs::SignalRequest{8, -9},
                "040800000000000000f7ffffffffffffff");
  expect_golden("pbs.hold", pbs::HoldRequest{3},
                "050300000000000000");
  expect_golden("pbs.release", pbs::ReleaseRequest{4},
                "060400000000000000");
  expect_golden("pbs.preempt", pbs::PreemptRequest{6},
                "070600000000000000");
  expect_golden("pbs.dump_state", pbs::DumpStateRequest{},
                "0a");
  expect_golden("pbs.load_state", pbs::LoadStateRequest{{1, 2, 3}},
                "0b03000000010203");
  expect_golden("pbs.mom_launch", s::mom_launch_request(),
                "1411000000000000000b000000636c696d6174652d73696d05000000616c"
                "696365040000006c6f6e670300000000d2496b00000000804a5d05000000"
                "00feffffffffffffff020000001b00000023212f62696e2f73680a6d7069"
                "72756e202e2f636c696d6174650a03000000677075020000000200000069"
                "62060000006269676d656d04000000ffffffffffffffff03e80300000000"
                "0000d007000000000000fffffffffffffffff7ffffffffffffff01040000"
                "00000000000900000002000000090000000b00000002000000");
  expect_golden("pbs.mom_kill", pbs::MomKillRequest{17, 2, true},
                "1511000000000000000200000001");
  expect_golden("pbs.mom_emu_complete", pbs::MomEmuCompleteRequest{17, -3},
                "161100000000000000fdffffffffffffff");
  expect_golden("pbs.mom_ping", pbs::MomPingRequest{2, 99},
                "17020000006300000000000000");
  expect_golden("pbs.job_report", s::job_report(),
                "1e11000000000000000f01000000000000010a0000000000000014000000"
                "0000000005000000");
}

TEST(WireGolden, PbsResponses) {
  expect_golden("pbs.submit_response",
                pbs::SubmitResponse{pbs::Status::kOk, 42, 3},
                "002a0000000000000003000000");
  expect_golden("pbs.stat_response", s::stat_response(),
                "000200000011000000000000000b000000636c696d6174652d73696d0500"
                "0000616c696365040000006c6f6e670300000000d2496b00000000804a5d"
                "0500000000feffffffffffffff020000001b00000023212f62696e2f7368"
                "0a6d706972756e202e2f636c696d6174650a030000006770750200000002"
                "0000006962060000006269676d656d04000000ffffffffffffffff03e803"
                "000000000000d007000000000000fffffffffffffffff7ffffffffffffff"
                "0104000000000000000900000002000000090000000b0000001100000000"
                "0000000b000000636c696d6174652d73696d05000000616c696365040000"
                "006c6f6e670300000000d2496b00000000804a5d0500000000feffffffff"
                "ffffff020000001b00000023212f62696e2f73680a6d706972756e202e2f"
                "636c696d6174650a03000000677075020000000200000069620600000062"
                "69676d656d04000000ffffffffffffffff03e803000000000000d0070000"
                "00000000fffffffffffffffff7ffffffffffffff01040000000000000009"
                "00000002000000090000000b000000");
  expect_golden("pbs.simple_response",
                pbs::SimpleResponse{pbs::Status::kUnknownJob},
                "01");
  expect_golden("pbs.dump_state_response",
                pbs::DumpStateResponse{pbs::Status::kOk, {4, 5}},
                "00020000000405");
  expect_golden("pbs.mom_launch_response",
                pbs::MomLaunchResponse{pbs::Status::kOk, true},
                "0001");
  expect_golden("pbs.mom_ping_response",
                pbs::MomPingResponse{pbs::Status::kServerBusy, 99, 2},
                "04630000000000000002000000");
}

/// The state blob a server dumps for persistence and snapshot transfer:
/// two preloaded queued jobs.
constexpr const char* kPbsState =
    "0300000000000000030000000000000002000000000000000200000001000000"
    "000000000b000000636c696d6174652d73696d05000000616c69636504000000"
    "6c6f6e670300000000d2496b00000000804a5d0500000000feffffffffffffff"
    "020000001b00000023212f62696e2f73680a6d706972756e202e2f636c696d61"
    "74650a0300000067707502000000020000006962060000006269676d656d0400"
    "0000ffffffffffffffff00000000000000000000000000000000000000000000"
    "0000000000000000000000000100000000000000ffffffff0000000002000000"
    "000000000b000000636c696d6174652d73696d05000000616c69636504000000"
    "6c6f6e670300000000d2496b00000000804a5d0500000000feffffffffffffff"
    "020000001b00000023212f62696e2f73680a6d706972756e202e2f636c696d61"
    "74650a0300000067707502000000020000006962060000006269676d656d0400"
    "0000ffffffffffffffff00000000000000000000000000000000000000000000"
    "0000000000000000000000000200000000000000ffffffff00000000";

TEST(WireGolden, PbsStateBlob) {
  pbstest::PbsHarness h;
  h.server->preload_queued(2, s::job_spec());
  EXPECT_EQ(to_hex(h.server->dump_state_blob()), kPbsState);

  expect_golden("pbs.state",
                pbs::ServerState{3, 3, 2, h.server->jobs()}, kPbsState);

  pbstest::PbsHarness h2;
  h2.server->load_state_blob(from_hex(kPbsState));
  EXPECT_TRUE(h2.server->jobs() == h.server->jobs());
  EXPECT_EQ(to_hex(h2.server->dump_state_blob()), kPbsState);
}

// -- joshua and rsm -----------------------------------------------------------

TEST(WireGolden, RsmCommandFrame) {
  expect_golden("rsm.command", s::command(),
                "0103000000630000000000000003000000010203");
}

TEST(WireGolden, JoshuaGroupAndPluginOps) {
  expect_golden("joshua.mutex_req", joshua::GroupMutexReq{42, 7, 31, 2},
                "022a00000000000000070000001f00000002000000");
  expect_golden("joshua.mutex_done", joshua::GroupMutexDone{42, -271, 7, 31},
                "032a00000000000000f1feffffffffffff070000001f000000");
  expect_golden("joshua.mutex_revoke", joshua::GroupMutexRevoke{31},
                "041f000000");
  expect_golden("joshua.preempt", joshua::GroupPreempt{42},
                "052a00000000000000");
  expect_golden("joshua.jmutex", joshua::JMutexRequest{11, 2, 31, 3},
                "c80b00000000000000020000001f00000003000000");
  expect_golden("joshua.jdone", joshua::JDoneRequest{11, -5, 31},
                "c90b00000000000000fbffffffffffffff1f000000");
  expect_golden("joshua.jmutex_response", joshua::JMutexResponse{true},
                "01");
}

TEST(WireGolden, JoshuaTransferBlobs) {
  expect_golden("joshua.command_log", s::command_log(),
                "030000000100000001020000000202030000000303033900000000000000");
  expect_golden("joshua.mutex_table", s::mutex_table(),
                "0200000007000000000000000200000000ffffffff000000000000000002"
                "0000001f0000000300000020000000040000000900000000000000010000"
                "000121000000f5ffffffffffffff00000000020000000200000000000000"
                "09000000000000000100000022000000");
  expect_golden("joshua.transfer", s::transfer_envelope(),
                "0203000000090807020000000402");
}

// -- pvfs ---------------------------------------------------------------------

TEST(WireGolden, PvfsMessages) {
  expect_golden("pvfs.request", s::md_request(),
                "080500000000000000060000000000000007000000000000000500000061"
                "2e74787405000000622e747874800100000010000000000000");
  expect_golden("pvfs.response", s::md_response(),
                "020c0000000000000001ed01000001000000000000000300000000000000"
                "040000000000000002000000000000000200000001000000780d00000000"
                "0000000201000000790e0000000000000001");
}

/// The snapshot of codec_samples::populate()'s namespace.
constexpr const char* kPvfsSnapshot =
    "0500000000000000040000000000000004000000010000000000000001ed0100"
    "0000000000000000000000000000000000040000000000000002000000000000"
    "0002000000010000006402000000000000000100000067040000000000000002"
    "0000000000000001e80100000000000000000000010000000000000002000000"
    "0000000001000000000000000100000001000000660300000000000000030000"
    "000000000002800100004d000000000000000200000000000000030000000000"
    "0000010000000000000000000000040000000000000002a40100000000000000"
    "00000004000000000000000400000000000000000000000000000000000000";

TEST(WireGolden, PvfsSnapshot) {
  pvfs::MetadataServer server;
  s::populate(server);
  EXPECT_EQ(to_hex(server.snapshot()), kPvfsSnapshot);

  pvfs::MetadataServer copy;
  copy.install(from_hex(kPvfsSnapshot));
  EXPECT_EQ(to_hex(copy.snapshot()), kPvfsSnapshot);
  EXPECT_EQ(copy.resolve("/d/f"), server.resolve("/d/f"));
  EXPECT_TRUE(copy.attr_of(copy.resolve("/d/f")) ==
              server.attr_of(server.resolve("/d/f")));
  EXPECT_EQ(copy.operations(), server.operations());
}

// -- token-ring engine --------------------------------------------------------

// Control bodies of a two-member ring (view epoch 3) and its stamp table.
constexpr const char* kTokenStamps =  // global 1 -> (1, 5), token 1
    "0203000000000000000100000000000000010000000000000001000000010000"
    "000500000000000000";
constexpr const char* kTokenPass =  // token 1, rotation 1, next global 2
    "0103000000000000000100000000000000010000000000000002000000000000"
    "00";
constexpr const char* kTokenStampsGap =  // global 2 -> (1, 6), token 1
    "0203000000000000000100000000000000020000000000000001000000010000"
    "000600000000000000";
constexpr const char* kTokenTable =  // next global 3, globals 1 and 2
    "0300000000000000020000000100000000000000010000000500000000000000"
    "0100000000000000020000000000000001000000060000000000000001000000"
    "00000000";
constexpr const char* kTokenRegenQuery =  // regeneration round 2
    "0403000000000000000200000000000000";
constexpr const char* kTokenRegenReply =  // round 2, next global 2
    "05030000000000000002000000000000000200000000000000";
constexpr const char* kTokenStampNack =  // from global 1
    "0303000000000000000100000000000000";

/// The engine's control bodies as it emits them: a two-member ring whose
/// lowest member stamps one message, passes the token round, stamps a
/// second one; then a regeneration round and a stamp-gap NACK.
TEST(WireGolden, TokenEngineControlBodies) {
  gcs::EngineTuning tuning;
  gcs::View view{{3, 1}, {1, 2}};
  gcs::TokenRingEngine a(tuning);
  gcs::TokenRingEngine b(tuning);
  a.reset(view, 1, 0);
  b.reset(view, 2, 0);

  gcs::DataMsg m;
  m.id = {1, 5};
  gcs::EngineOut sent = a.on_local_send(m, 10);
  ASSERT_EQ(sent.broadcasts.size(), 1u);
  ASSERT_TRUE(sent.unicast.has_value());
  EXPECT_EQ(to_hex(sent.broadcasts[0]), kTokenStamps);
  EXPECT_EQ(to_hex(sent.unicast->second), kTokenPass);

  // Round the ring once more; a stamps global 2.
  b.on_control(1, sent.unicast->second, 20);
  ASSERT_TRUE(b.holding_token());
  gcs::EngineOut back = b.on_forward_timer(30);
  ASSERT_TRUE(back.unicast.has_value());
  a.on_control(2, back.unicast->second, 40);
  ASSERT_TRUE(a.holding_token());
  m.id = {1, 6};
  gcs::EngineOut second = a.on_local_send(m, 50);
  ASSERT_EQ(second.broadcasts.size(), 1u);
  EXPECT_EQ(to_hex(second.broadcasts[0]), kTokenStampsGap);
  EXPECT_EQ(to_hex(a.transfer_state()), kTokenTable);

  // The lowest member, not holding, regenerates after ring silence.
  gcs::EngineOut regen = a.on_tick(10'000'000);
  ASSERT_EQ(regen.broadcasts.size(), 1u);
  EXPECT_EQ(to_hex(regen.broadcasts[0]), kTokenRegenQuery);
  gcs::EngineOut reply = b.on_control(1, from_hex(kTokenRegenQuery), 60);
  ASSERT_TRUE(reply.unicast.has_value());
  EXPECT_EQ(to_hex(reply.unicast->second), kTokenRegenReply);

  // c learns global 2 before global 1: the gap persists, c NACKs its head.
  gcs::TokenRingEngine c(tuning);
  c.reset(view, 2, 0);
  EXPECT_TRUE(c.on_control(1, from_hex(kTokenStampsGap), 30).empty());
  EXPECT_EQ(c.next_global(), 3u);
  EXPECT_TRUE(c.on_tick(40).empty());
  gcs::EngineOut nack = c.on_tick(50);
  ASSERT_EQ(nack.broadcasts.size(), 1u);
  EXPECT_EQ(to_hex(nack.broadcasts[0]), kTokenStampNack);
}

TEST(WireGolden, TokenEngineBodies) {
  using namespace gcs::token;
  expect_golden("token.pass", Pass{3, 1, 1, 2}, kTokenPass);
  expect_golden("token.stamps", Stamps{3, 1, 1, {{1, 5}}}, kTokenStamps);
  expect_golden("token.stamps.gap", Stamps{3, 1, 2, {{1, 6}}}, kTokenStampsGap);
  expect_golden("token.stamp_nack", StampNack{3, 1}, kTokenStampNack);
  expect_golden("token.regen_query", RegenQuery{3, 2}, kTokenRegenQuery);
  expect_golden("token.regen_reply", RegenReply{3, 2, 2}, kTokenRegenReply);
  expect_golden("token.table",
                StampTable{3, {{1, {{1, 5}, 1}}, {2, {{1, 6}, 1}}}},
                kTokenTable);
}

/// Bodies the engine decodes: the golden stamp table installs, and a golden
/// token hand-off makes its receiver the holder.
TEST(WireGolden, TokenEngineDecodesGoldenBodies) {
  gcs::EngineTuning tuning;
  gcs::View view{{3, 1}, {1, 2}};
  gcs::TokenRingEngine b(tuning);
  b.reset(view, 2, 0);
  b.on_control(1, from_hex(kTokenPass), 10);
  EXPECT_TRUE(b.holding_token());
  EXPECT_EQ(b.token_id_seen(), 1u);
  EXPECT_EQ(b.next_global(), 2u);

  gcs::TokenRingEngine c(tuning);
  c.install_transfer_state(from_hex(kTokenTable));
  EXPECT_EQ(c.next_global(), 3u);
  std::vector<gcs::DataMsg> flush(3);
  flush[0].id = {2, 1};
  flush[1].id = {1, 6};
  flush[2].id = {1, 5};
  c.order_flush(flush);
  EXPECT_EQ(flush[0].id, (gcs::MsgId{1, 5})) << "stamped messages first";
  EXPECT_EQ(flush[1].id, (gcs::MsgId{1, 6}));
  EXPECT_EQ(flush[2].id, (gcs::MsgId{2, 1}));
}

}  // namespace
