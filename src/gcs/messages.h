// Wire messages of the group communication protocol.
//
// Every message carries a common Header with the sender's identity, its
// lamport clock, the highest sequence number it has sent, and its received
// vector (cut). Piggybacking the cut on everything -- as Transis does --
// lets any traffic advance stability.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "gcs/types.h"
#include "net/wire.h"

namespace gcs {

enum class MsgType : uint8_t {
  kData = 1,
  kCut = 2,        ///< explicit ack/stability message (also the heartbeat)
  kNack = 3,
  kRetransmit = 4,
  kJoinReq = 5,
  kLeave = 6,
  kVcPropose = 7,
  kVcAck = 8,
  kVcCommit = 9,
  kStateReq = 10,
  kState = 11,
  kEngine = 12,  ///< ordering-engine control traffic (token, stamps, ...)
};

/// `Cut` is how the cut vector is held: a CutVector, a CutView into the
/// packet it was read from (BasicCutWire<CutView> below), or a reference to
/// the sender's own received vector (OutHeader).
template <class Cut>
struct BasicHeader {
  MemberId from = sim::kInvalidHost;
  uint64_t lamport = 0;
  uint64_t sent_upto = 0;
  Cut received;  ///< cut vector (sorted member/seq pairs)
  bool operator==(const BasicHeader&) const = default;
};
using Header = BasicHeader<CutVector>;
/// A header being sent: its cut is encoded from the sender's received
/// vector in place rather than copied into the message first. Its wire
/// bytes are a Header's. Valid while that vector is unchanged.
using OutHeader = BasicHeader<const CutVector&>;

template <class Cut>
struct BasicDataWire {
  BasicHeader<Cut> header;
  DataMsg msg;
  bool operator==(const BasicDataWire&) const = default;
};
using DataWire = BasicDataWire<CutVector>;

template <class Cut>
struct BasicCutWire {
  BasicHeader<Cut> header;
  bool periodic = false;  ///< true for heartbeat cuts (cheap to process)
  bool operator==(const BasicCutWire&) const = default;
};
using CutWire = BasicCutWire<CutVector>;
/// An inbound cut decoded in place: the whole packet is validated, and its
/// cut entries stay in the packet bytes (merged from there by
/// OrderingBuffer::observe).
using CutWireView = BasicCutWire<CutView>;

struct NackWire {
  Header header;
  std::vector<MsgId> missing;
  bool operator==(const NackWire&) const = default;
};

struct RetransmitWire {
  Header header;
  std::vector<DataMsg> msgs;
  bool operator==(const RetransmitWire&) const = default;
};

struct JoinReqWire {
  Header header;
  uint32_t incarnation = 0;
  bool operator==(const JoinReqWire&) const = default;
};

struct LeaveWire {
  Header header;
  bool operator==(const LeaveWire&) const = default;
};

struct VcProposeWire {
  Header header;
  ViewId proposed;
  std::vector<MemberId> members;
  bool operator==(const VcProposeWire&) const = default;
};

struct VcAckWire {
  Header header;
  ViewId proposed;
  std::vector<DataMsg> held;  ///< everything the sender holds of the old view
  /// Opaque OrderingEngine transfer state (token mode: the stamp table).
  sim::Payload engine_state;
  bool operator==(const VcAckWire&) const = default;
};

struct VcCommitWire {
  Header header;
  View new_view;
  std::vector<MemberId> old_members;
  /// Members entering fresh (no history): their per-sender sequence counters
  /// restart at zero everywhere. A crash-restarted head appears in both
  /// old_members and joiners.
  std::vector<MemberId> joiners;
  std::vector<DataMsg> union_msgs;
  /// Per-member highest sequence number of the old view's stream; everyone
  /// aligns their received counters to this after the flush so joiners do
  /// not see phantom gaps.
  std::map<MemberId, uint64_t> seq_baseline;
  MemberId state_source = sim::kInvalidHost;
  /// Merged OrderingEngine transfer state, installed by everyone before the
  /// flush so the flush delivery order agrees at every member.
  sim::Payload engine_state;
  bool operator==(const VcCommitWire&) const = default;
};

struct StateReqWire {
  Header header;
  ViewId view_id;
  bool operator==(const StateReqWire&) const = default;
};

/// Ordering-engine control message; the body is engine-defined (the host
/// GroupMember routes it to OrderingEngine::on_control without looking).
template <class Cut>
struct BasicEngineWire {
  BasicHeader<Cut> header;
  sim::Payload body;
  bool operator==(const BasicEngineWire&) const = default;
};
using EngineWire = BasicEngineWire<CutVector>;

struct StateWire {
  Header header;
  ViewId view_id;
  sim::Payload state;
  bool operator==(const StateWire&) const = default;
};

// -- wire layouts (net/wire.h) ------------------------------------------------
// Every message is [u8 type][header][body]. net::peek_tag<MsgType> reads the
// type so the dispatcher can pick a handler and a CPU cost before decoding.

template <class Ar, class Cut> void fields(Ar& ar, BasicHeader<Cut>& h) {
  ar(h.from, h.lamport, h.sent_upto, h.received);
}
template <class Ar, class Cut> void fields(Ar& ar, BasicDataWire<Cut>& m) {
  ar.tag(MsgType::kData);
  ar(m.header, m.msg);
}
template <class Ar, class Cut> void fields(Ar& ar, BasicCutWire<Cut>& m) {
  ar.tag(MsgType::kCut);
  ar(m.header, m.periodic);  // periodic stays last: see cut_is_periodic
}
/// A cut's periodic flag without decoding it: the flag is the last field of
/// CutWire, so it is the packet's last byte.
inline bool cut_is_periodic(const sim::Payload& cut) {
  return !cut.empty() && cut.back() != 0;
}
template <class Ar> void fields(Ar& ar, NackWire& m) {
  ar.tag(MsgType::kNack);
  ar(m.header, m.missing);
}
template <class Ar> void fields(Ar& ar, RetransmitWire& m) {
  ar.tag(MsgType::kRetransmit);
  ar(m.header, m.msgs);
}
template <class Ar> void fields(Ar& ar, JoinReqWire& m) {
  ar.tag(MsgType::kJoinReq);
  ar(m.header, m.incarnation);
}
template <class Ar> void fields(Ar& ar, LeaveWire& m) {
  ar.tag(MsgType::kLeave);
  ar(m.header);
}
template <class Ar> void fields(Ar& ar, VcProposeWire& m) {
  ar.tag(MsgType::kVcPropose);
  ar(m.header, m.proposed, m.members);
}
template <class Ar> void fields(Ar& ar, VcAckWire& m) {
  ar.tag(MsgType::kVcAck);
  ar(m.header, m.proposed, m.held, m.engine_state);
}
template <class Ar> void fields(Ar& ar, VcCommitWire& m) {
  ar.tag(MsgType::kVcCommit);
  ar(m.header, m.new_view, m.old_members, m.joiners, m.union_msgs,
     m.seq_baseline, m.state_source, m.engine_state);
}
template <class Ar> void fields(Ar& ar, StateReqWire& m) {
  ar.tag(MsgType::kStateReq);
  ar(m.header, m.view_id);
}
template <class Ar> void fields(Ar& ar, StateWire& m) {
  ar.tag(MsgType::kState);
  ar(m.header, m.view_id, m.state);
}
template <class Ar, class Cut> void fields(Ar& ar, BasicEngineWire<Cut>& m) {
  ar.tag(MsgType::kEngine);
  ar(m.header, m.body);
}

}  // namespace gcs
