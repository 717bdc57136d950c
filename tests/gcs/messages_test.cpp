#include "gcs/messages.h"

#include <gtest/gtest.h>

namespace {

using namespace gcs;

Header sample_header() {
  Header h;
  h.from = 3;
  h.lamport = 77;
  h.sent_upto = 12;
  h.received = {{0, 5}, {1, 7}};
  return h;
}

void expect_header_eq(const Header& a, const Header& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.lamport, b.lamport);
  EXPECT_EQ(a.sent_upto, b.sent_upto);
  EXPECT_EQ(a.received, b.received);
}

DataMsg sample_msg() {
  DataMsg m;
  m.id = {2, 9};
  m.lamport = 42;
  m.payload = {0xde, 0xad};
  return m;
}

TEST(GcsMessages, DataRoundTrip) {
  DataWire m{sample_header(), sample_msg()};
  sim::Payload buf = net::encode(m);
  EXPECT_EQ(net::peek_tag<MsgType>(buf), MsgType::kData);
  DataWire back = net::decode<DataWire>(buf);
  expect_header_eq(back.header, m.header);
  EXPECT_EQ(back.msg.id, m.msg.id);
  EXPECT_EQ(back.msg.lamport, m.msg.lamport);
  EXPECT_EQ(back.msg.payload, m.msg.payload);
}

TEST(GcsMessages, CutRoundTripBothFlags) {
  for (bool periodic : {false, true}) {
    CutWire m{sample_header(), periodic};
    CutWire back = net::decode<CutWire>(net::encode(m));
    expect_header_eq(back.header, m.header);
    EXPECT_EQ(back.periodic, periodic);
    // The dispatcher peeks the periodic flag from the last byte.
    sim::Payload buf = net::encode(m);
    EXPECT_EQ(buf.back() != 0, periodic);
  }
}

TEST(GcsMessages, NackRoundTrip) {
  NackWire m{sample_header(), {{1, 4}, {2, 7}}};
  NackWire back = net::decode<NackWire>(net::encode(m));
  EXPECT_EQ(back.missing.size(), 2u);
  EXPECT_EQ(back.missing[0], (MsgId{1, 4}));
  EXPECT_EQ(back.missing[1], (MsgId{2, 7}));
}

TEST(GcsMessages, RetransmitRoundTrip) {
  RetransmitWire m{sample_header(), {sample_msg(), sample_msg()}};
  RetransmitWire back = net::decode<RetransmitWire>(net::encode(m));
  ASSERT_EQ(back.msgs.size(), 2u);
  EXPECT_EQ(back.msgs[0].id, sample_msg().id);
}

TEST(GcsMessages, JoinLeaveRoundTrip) {
  JoinReqWire j{sample_header(), 5};
  JoinReqWire jb = net::decode<JoinReqWire>(net::encode(j));
  EXPECT_EQ(jb.incarnation, 5u);
  LeaveWire l{sample_header()};
  LeaveWire lb = net::decode<LeaveWire>(net::encode(l));
  expect_header_eq(lb.header, l.header);
}

TEST(GcsMessages, ViewChangeRoundTrip) {
  VcProposeWire p{sample_header(), {9, 1}, {0, 1, 2}};
  VcProposeWire pb = net::decode<VcProposeWire>(net::encode(p));
  EXPECT_EQ(pb.proposed, (ViewId{9, 1}));
  EXPECT_EQ(pb.members, (std::vector<MemberId>{0, 1, 2}));

  VcAckWire a;
  a.header = sample_header();
  a.proposed = {9, 1};
  a.held = {sample_msg()};
  VcAckWire ab = net::decode<VcAckWire>(net::encode(a));
  EXPECT_EQ(ab.proposed, (ViewId{9, 1}));
  ASSERT_EQ(ab.held.size(), 1u);

  VcCommitWire c;
  c.header = sample_header();
  c.new_view.id = {9, 1};
  c.new_view.members = {0, 1, 2};
  c.old_members = {0, 1};
  c.joiners = {2};
  c.union_msgs = {sample_msg()};
  c.seq_baseline = {{0, 3}, {1, 8}, {2, 0}};
  c.state_source = 0;
  VcCommitWire cb = net::decode<VcCommitWire>(net::encode(c));
  EXPECT_EQ(cb.new_view.id, c.new_view.id);
  EXPECT_EQ(cb.new_view.members, c.new_view.members);
  EXPECT_EQ(cb.old_members, c.old_members);
  EXPECT_EQ(cb.joiners, c.joiners);
  EXPECT_EQ(cb.seq_baseline, c.seq_baseline);
  EXPECT_EQ(cb.state_source, 0u);
  ASSERT_EQ(cb.union_msgs.size(), 1u);
}

TEST(GcsMessages, StateRoundTrip) {
  StateReqWire req{sample_header(), {4, 2}};
  StateReqWire reqb = net::decode<StateReqWire>(net::encode(req));
  EXPECT_EQ(reqb.view_id, (ViewId{4, 2}));

  StateWire st{sample_header(), {4, 2}, {1, 2, 3, 4}};
  StateWire stb = net::decode<StateWire>(net::encode(st));
  EXPECT_EQ(stb.state, (sim::Payload{1, 2, 3, 4}));
}

TEST(GcsMessages, TypeMismatchThrows) {
  DataWire m{sample_header(), sample_msg()};
  sim::Payload buf = net::encode(m);
  EXPECT_THROW(net::decode<CutWire>(buf), net::WireError);
  EXPECT_THROW(net::peek_tag<MsgType>(sim::Payload{}), net::WireError);
}

TEST(GcsMessages, TruncationThrows) {
  DataWire m{sample_header(), sample_msg()};
  sim::Payload buf = net::encode(m);
  buf.resize(buf.size() / 2);
  EXPECT_THROW(net::decode<DataWire>(buf), net::WireError);
}

TEST(GcsTypes, ViewIdOrdering) {
  EXPECT_LT((ViewId{1, 5}), (ViewId{2, 0}));
  EXPECT_LT((ViewId{2, 0}), (ViewId{2, 1}));
  EXPECT_EQ((ViewId{2, 1}), (ViewId{2, 1}));
}

TEST(GcsTypes, ViewContainsAndLowest) {
  View v;
  v.members = {1, 3, 5};
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(2));
  EXPECT_EQ(v.lowest(), 1u);
  EXPECT_EQ(View{}.lowest(), sim::kInvalidHost);
}

TEST(GcsTypes, OrderKeyOrdersByLamportThenSender) {
  DataMsg a = sample_msg();
  a.lamport = 10;
  a.id.sender = 2;
  DataMsg b = sample_msg();
  b.lamport = 10;
  b.id.sender = 1;
  EXPECT_LT(order_key(b), order_key(a));
  b.lamport = 11;
  EXPECT_LT(order_key(a), order_key(b));
}

}  // namespace
