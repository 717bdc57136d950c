#include "gcs/messages.h"

namespace gcs {
namespace {

void encode_header(net::Writer& w, const Header& h) {
  w.u32(h.from);
  w.u64(h.lamport);
  w.u64(h.sent_upto);
  encode_cut(w, h.received);
}

/// Decodes in place: a reused Header keeps its cut's capacity.
void decode_header(net::Reader& r, Header& h) {
  h.from = r.u32();
  h.lamport = r.u64();
  h.sent_upto = r.u64();
  decode_cut_into(r, h.received);
}

void encode_view_id(net::Writer& w, const ViewId& id) {
  w.u64(id.epoch);
  w.u32(id.coordinator);
}

ViewId decode_view_id(net::Reader& r) {
  ViewId id;
  id.epoch = r.u64();
  id.coordinator = r.u32();
  return id;
}

void encode_msg_id(net::Writer& w, const MsgId& id) {
  w.u32(id.sender);
  w.u64(id.seq);
}

MsgId decode_msg_id(net::Reader& r) {
  MsgId id;
  id.sender = r.u32();
  id.seq = r.u64();
  return id;
}

net::Writer begin(MsgType type, const Header& h) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(type));
  encode_header(w, h);
  return w;
}

net::Reader open(const sim::Payload& buf, MsgType expected, Header& h) {
  net::Reader r(buf);
  auto type = static_cast<MsgType>(r.u8());
  if (type != expected) throw net::WireError("gcs: message type mismatch");
  decode_header(r, h);
  return r;
}

}  // namespace

MsgType decode_type(const sim::Payload& buf) {
  if (buf.empty()) throw net::WireError("gcs: empty message");
  return static_cast<MsgType>(buf[0]);
}

sim::Payload encode(const DataWire& m) {
  net::Writer w = begin(MsgType::kData, m.header);
  encode_data_msg(w, m.msg);
  return w.take();
}

DataWire decode_data(const sim::Payload& buf) {
  DataWire m;
  net::Reader r = open(buf, MsgType::kData, m.header);
  m.msg = decode_data_msg(r);
  r.expect_done();
  return m;
}

sim::Payload encode(const CutWire& m) {
  net::Writer w = begin(MsgType::kCut, m.header);
  w.boolean(m.periodic);
  return w.take();
}

CutWire decode_cut(const sim::Payload& buf) {
  CutWire m;
  decode_cut(buf, m);
  return m;
}

void decode_cut(const sim::Payload& buf, CutWire& into) {
  net::Reader r = open(buf, MsgType::kCut, into.header);
  into.periodic = r.boolean();
  r.expect_done();
}

sim::Payload encode(const NackWire& m) {
  net::Writer w = begin(MsgType::kNack, m.header);
  w.vec(m.missing, [](net::Writer& w2, const MsgId& id) { encode_msg_id(w2, id); });
  return w.take();
}

NackWire decode_nack(const sim::Payload& buf) {
  NackWire m;
  net::Reader r = open(buf, MsgType::kNack, m.header);
  m.missing = r.vec<MsgId>([](net::Reader& r2) { return decode_msg_id(r2); });
  r.expect_done();
  return m;
}

sim::Payload encode(const RetransmitWire& m) {
  net::Writer w = begin(MsgType::kRetransmit, m.header);
  w.vec(m.msgs,
        [](net::Writer& w2, const DataMsg& d) { encode_data_msg(w2, d); });
  return w.take();
}

RetransmitWire decode_retransmit(const sim::Payload& buf) {
  RetransmitWire m;
  net::Reader r = open(buf, MsgType::kRetransmit, m.header);
  m.msgs = r.vec<DataMsg>([](net::Reader& r2) { return decode_data_msg(r2); });
  r.expect_done();
  return m;
}

sim::Payload encode(const JoinReqWire& m) {
  net::Writer w = begin(MsgType::kJoinReq, m.header);
  w.u32(m.incarnation);
  return w.take();
}

JoinReqWire decode_join_req(const sim::Payload& buf) {
  JoinReqWire m;
  net::Reader r = open(buf, MsgType::kJoinReq, m.header);
  m.incarnation = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode(const LeaveWire& m) {
  net::Writer w = begin(MsgType::kLeave, m.header);
  return w.take();
}

LeaveWire decode_leave(const sim::Payload& buf) {
  LeaveWire m;
  net::Reader r = open(buf, MsgType::kLeave, m.header);
  r.expect_done();
  return m;
}

sim::Payload encode(const VcProposeWire& m) {
  net::Writer w = begin(MsgType::kVcPropose, m.header);
  encode_view_id(w, m.proposed);
  w.vec(m.members, [](net::Writer& w2, MemberId id) { w2.u32(id); });
  return w.take();
}

VcProposeWire decode_vc_propose(const sim::Payload& buf) {
  VcProposeWire m;
  net::Reader r = open(buf, MsgType::kVcPropose, m.header);
  m.proposed = decode_view_id(r);
  m.members = r.vec<MemberId>([](net::Reader& r2) { return r2.u32(); });
  r.expect_done();
  return m;
}

sim::Payload encode(const VcAckWire& m) {
  net::Writer w = begin(MsgType::kVcAck, m.header);
  encode_view_id(w, m.proposed);
  w.vec(m.held,
        [](net::Writer& w2, const DataMsg& d) { encode_data_msg(w2, d); });
  w.bytes(m.engine_state);
  return w.take();
}

VcAckWire decode_vc_ack(const sim::Payload& buf) {
  VcAckWire m;
  net::Reader r = open(buf, MsgType::kVcAck, m.header);
  m.proposed = decode_view_id(r);
  m.held = r.vec<DataMsg>([](net::Reader& r2) { return decode_data_msg(r2); });
  m.engine_state = r.bytes();
  r.expect_done();
  return m;
}

sim::Payload encode(const VcCommitWire& m) {
  net::Writer w = begin(MsgType::kVcCommit, m.header);
  encode_view(w, m.new_view);
  w.vec(m.old_members, [](net::Writer& w2, MemberId id) { w2.u32(id); });
  w.vec(m.joiners, [](net::Writer& w2, MemberId id) { w2.u32(id); });
  w.vec(m.union_msgs,
        [](net::Writer& w2, const DataMsg& d) { encode_data_msg(w2, d); });
  encode_u64_map(w, m.seq_baseline);
  w.u32(m.state_source);
  w.bytes(m.engine_state);
  return w.take();
}

VcCommitWire decode_vc_commit(const sim::Payload& buf) {
  VcCommitWire m;
  net::Reader r = open(buf, MsgType::kVcCommit, m.header);
  m.new_view = decode_view(r);
  m.old_members = r.vec<MemberId>([](net::Reader& r2) { return r2.u32(); });
  m.joiners = r.vec<MemberId>([](net::Reader& r2) { return r2.u32(); });
  m.union_msgs =
      r.vec<DataMsg>([](net::Reader& r2) { return decode_data_msg(r2); });
  m.seq_baseline = decode_u64_map(r);
  m.state_source = r.u32();
  m.engine_state = r.bytes();
  r.expect_done();
  return m;
}

sim::Payload encode(const StateReqWire& m) {
  net::Writer w = begin(MsgType::kStateReq, m.header);
  encode_view_id(w, m.view_id);
  return w.take();
}

StateReqWire decode_state_req(const sim::Payload& buf) {
  StateReqWire m;
  net::Reader r = open(buf, MsgType::kStateReq, m.header);
  m.view_id = decode_view_id(r);
  r.expect_done();
  return m;
}

sim::Payload encode(const StateWire& m) {
  net::Writer w = begin(MsgType::kState, m.header);
  encode_view_id(w, m.view_id);
  w.bytes(m.state);
  return w.take();
}

StateWire decode_state(const sim::Payload& buf) {
  StateWire m;
  net::Reader r = open(buf, MsgType::kState, m.header);
  m.view_id = decode_view_id(r);
  m.state = r.bytes();
  r.expect_done();
  return m;
}

sim::Payload encode(const EngineWire& m) {
  net::Writer w = begin(MsgType::kEngine, m.header);
  w.bytes(m.body);
  return w.take();
}

EngineWire decode_engine(const sim::Payload& buf) {
  EngineWire m;
  net::Reader r = open(buf, MsgType::kEngine, m.header);
  m.body = r.bytes();
  r.expect_done();
  return m;
}

}  // namespace gcs
