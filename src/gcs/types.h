// Core types of the group communication system (the project's
// Transis-equivalent; see DESIGN.md section 2).
//
// Identity model: a member is identified by the host it runs on (one gcs
// daemon per head node, exactly like one Transis daemon per node). Views are
// identified by a monotonically growing epoch plus the proposing
// coordinator, ordered lexicographically.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/wire.h"
#include "sim/network.h"

namespace gcs {

using MemberId = sim::HostId;

/// The delivery service: total order, identical at all members (Transis's
/// AGREED level, the only one JOSHUA uses). Kept as an argument of
/// GroupMember::multicast only because jbench still passes it.
enum class Delivery : uint8_t {
  kAgreed = 2,
};

struct ViewId {
  uint64_t epoch = 0;
  MemberId coordinator = sim::kInvalidHost;
  auto operator<=>(const ViewId&) const = default;
};

struct View {
  ViewId id;
  std::vector<MemberId> members;  ///< sorted ascending

  bool contains(MemberId m) const {
    return std::binary_search(members.begin(), members.end(), m);
  }
  /// View rank of `m` (its index in `members`), or -1 for a non-member.
  /// Ranks index the gcs's dense per-member state; they only move when a
  /// new view is installed.
  int rank(MemberId m) const {
    auto it = std::lower_bound(members.begin(), members.end(), m);
    return it != members.end() && *it == m
               ? static_cast<int>(it - members.begin())
               : -1;
  }
  size_t size() const { return members.size(); }
  /// Lowest member id; used for coordinator election.
  MemberId lowest() const { return members.empty() ? sim::kInvalidHost : members.front(); }
  bool operator==(const View&) const = default;
};

/// Unique id of a data message: the sender plus its per-sender sequence
/// number (sequence numbers never reset, so ids are stable across views).
struct MsgId {
  MemberId sender = sim::kInvalidHost;
  uint64_t seq = 0;
  auto operator<=>(const MsgId&) const = default;
};

/// A cut (received vector) as carried on the wire and cached in the
/// ordering buffer: sorted (member, contiguous-seq) pairs. A flat vector
/// instead of std::map keeps the hot paths -- every header carries a cut,
/// at 128 heads that is 128 entries per message -- to one allocation per
/// copy instead of one node allocation per entry.
using CutVector = std::vector<std::pair<MemberId, uint64_t>>;
/// An inbound cut read in place: the same pairs, left in the packet.
using CutView = net::PairsView<MemberId, uint64_t>;

/// A replicated data message as held in ordering buffers and send logs.
struct DataMsg {
  MsgId id;
  uint64_t lamport = 0;  ///< logical send timestamp (total-order key)
  sim::Payload payload;
  bool operator==(const DataMsg&) const = default;
};

/// Total-order key: (lamport timestamp, sender id) -- the classic Lamport
/// tie-break gives one global sequence all members agree on.
struct OrderKey {
  uint64_t lamport = 0;
  MemberId sender = sim::kInvalidHost;
  uint64_t seq = 0;  // disambiguates (cannot differ for same lamport+sender,
                     // but keeps the key strictly unique)
  auto operator<=>(const OrderKey&) const = default;
};

inline OrderKey order_key(const DataMsg& m) {
  return OrderKey{m.lamport, m.id.sender, m.id.seq};
}

/// What the application receives.
struct Delivered {
  MemberId sender = sim::kInvalidHost;
  uint64_t seq = 0;
  sim::Payload payload;
};

// -- wire layouts (net/wire.h) ------------------------------------------------
// A CutVector and a CutView share one layout (that of a
// std::map<MemberId, uint64_t>): a u32 count, then sorted (member, seq) pairs.

template <class Ar> void fields(Ar& ar, ViewId& id) {
  ar(id.epoch, id.coordinator);
}
template <class Ar> void fields(Ar& ar, View& view) {
  ar(view.id, view.members);
}
template <class Ar> void fields(Ar& ar, MsgId& id) { ar(id.sender, id.seq); }
template <class Ar> void fields(Ar& ar, DataMsg& m) {
  ar(m.id, m.lamport, m.payload);
}

}  // namespace gcs
