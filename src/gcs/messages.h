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

struct Header {
  MemberId from = sim::kInvalidHost;
  uint64_t lamport = 0;
  uint64_t sent_upto = 0;
  CutVector received;  ///< cut vector (sorted member/seq pairs)
};

struct DataWire {
  Header header;
  DataMsg msg;
};

struct CutWire {
  Header header;
  bool periodic = false;  ///< true for heartbeat cuts (cheap to process)
};

struct NackWire {
  Header header;
  std::vector<MsgId> missing;
};

struct RetransmitWire {
  Header header;
  std::vector<DataMsg> msgs;
};

struct JoinReqWire {
  Header header;
  uint32_t incarnation = 0;
};

struct LeaveWire {
  Header header;
};

struct VcProposeWire {
  Header header;
  ViewId proposed;
  std::vector<MemberId> members;
};

struct VcAckWire {
  Header header;
  ViewId proposed;
  std::vector<DataMsg> held;  ///< everything the sender holds of the old view
  /// Opaque OrderingEngine transfer state (token mode: the stamp table).
  sim::Payload engine_state;
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
};

struct StateReqWire {
  Header header;
  ViewId view_id;
};

/// Ordering-engine control message; the body is engine-defined (the host
/// GroupMember routes it to OrderingEngine::on_control without looking).
struct EngineWire {
  Header header;
  sim::Payload body;
};

struct StateWire {
  Header header;
  ViewId view_id;
  sim::Payload state;
};

// Encoding: [u8 type][header][body]. decode_type peeks the tag so the
// dispatcher can pick a handler and a CPU cost before full decoding.
MsgType decode_type(const sim::Payload& buf);

sim::Payload encode(const DataWire&);
sim::Payload encode(const CutWire&);
sim::Payload encode(const NackWire&);
sim::Payload encode(const RetransmitWire&);
sim::Payload encode(const JoinReqWire&);
sim::Payload encode(const LeaveWire&);
sim::Payload encode(const VcProposeWire&);
sim::Payload encode(const VcAckWire&);
sim::Payload encode(const VcCommitWire&);
sim::Payload encode(const StateReqWire&);
sim::Payload encode(const StateWire&);
sim::Payload encode(const EngineWire&);

DataWire decode_data(const sim::Payload&);
CutWire decode_cut(const sim::Payload&);
/// Decode into `into`, reusing its cut storage (the per-packet hot path).
void decode_cut(const sim::Payload& buf, CutWire& into);
NackWire decode_nack(const sim::Payload&);
RetransmitWire decode_retransmit(const sim::Payload&);
JoinReqWire decode_join_req(const sim::Payload&);
LeaveWire decode_leave(const sim::Payload&);
VcProposeWire decode_vc_propose(const sim::Payload&);
VcAckWire decode_vc_ack(const sim::Payload&);
VcCommitWire decode_vc_commit(const sim::Payload&);
StateReqWire decode_state_req(const sim::Payload&);
StateWire decode_state(const sim::Payload&);
EngineWire decode_engine(const sim::Payload&);

}  // namespace gcs
