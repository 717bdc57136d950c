// JOSHUA wire formats: group messages replicated through the gcs, and the
// jmutex/jdone RPCs the mom-side scripts exchange with the joshua servers.
#pragma once

#include <cstdint>

#include "gcs/types.h"
#include "net/wire.h"
#include "pbs/job.h"

namespace joshua {

/// Payloads multicast (AGREED) through the group communication system.
enum class GroupOp : uint8_t {
  kCommand = 1,      ///< an intercepted PBS user command (rsm::kCommandTag)
  kMutexReq = 2,     ///< jmutex: request to launch a job (replica) on a mom
  kMutexDone = 3,    ///< jdone: a real run finished (first in order wins)
  kMutexRevoke = 4,  ///< a mom died; release its undone launch claims
  kPreempt = 5,      ///< requeue a running job at the same stream point
};

struct GroupMutexReq {
  pbs::JobId job = pbs::kInvalidJob;
  gcs::MemberId head = sim::kInvalidHost;  ///< launch attempt on behalf of
  sim::HostId mom = sim::kInvalidHost;     ///< mom the prologue runs on
  uint32_t replicas = 1;  ///< job's replication factor (exactly-r slots)
  bool operator==(const GroupMutexReq&) const = default;
};

struct GroupMutexDone {
  pbs::JobId job = pbs::kInvalidJob;
  int32_t exit_code = 0;
  gcs::MemberId head = sim::kInvalidHost;
  sim::HostId mom = sim::kInvalidHost;  ///< mom whose real run finished
  bool operator==(const GroupMutexDone&) const = default;
};

/// Multicast when a head detects a compute-node failure: every undone
/// launch claim held by that mom is released so a relaunched replica
/// (on another node) can win its slot. Idempotent -- several heads may
/// announce the same failure.
struct GroupMutexRevoke {
  sim::HostId mom = sim::kInvalidHost;
  bool operator==(const GroupMutexRevoke&) const = default;
};

/// Multicast when a head's scheduler picks a preemption victim. Delivered
/// in total order, so every head requeues the victim (and clears its jmutex
/// state) at the same point of the command stream. Idempotent: once the
/// victim is requeued, later deliveries for the same decision are no-ops.
struct GroupPreempt {
  pbs::JobId job = pbs::kInvalidJob;
  bool operator==(const GroupPreempt&) const = default;
};

template <class Ar> void fields(Ar& ar, GroupMutexReq& m) {
  ar.tag(GroupOp::kMutexReq);
  ar(m.job, m.head, m.mom, m.replicas);
}
template <class Ar> void fields(Ar& ar, GroupMutexDone& m) {
  ar.tag(GroupOp::kMutexDone);
  ar(m.job, m.exit_code, m.head, m.mom);
}
template <class Ar> void fields(Ar& ar, GroupMutexRevoke& m) {
  ar.tag(GroupOp::kMutexRevoke);
  ar(m.mom);
}
template <class Ar> void fields(Ar& ar, GroupPreempt& m) {
  ar.tag(GroupOp::kPreempt);
  ar(m.job);
}

/// Mom-plugin RPC ops share the joshua server port with PBS user commands;
/// the tag byte range is disjoint from pbs::Op.
enum class PluginOp : uint8_t {
  kJMutex = 200,
  kJDone = 201,
};

struct JMutexRequest {
  pbs::JobId job = pbs::kInvalidJob;
  gcs::MemberId head = sim::kInvalidHost;  ///< origin of the launch attempt
  sim::HostId mom = sim::kInvalidHost;     ///< mom running the prologue
  uint32_t replicas = 1;                   ///< job's replication factor
  bool operator==(const JMutexRequest&) const = default;
};
struct JMutexResponse {
  bool won = false;
  bool operator==(const JMutexResponse&) const = default;
};

struct JDoneRequest {
  pbs::JobId job = pbs::kInvalidJob;
  int32_t exit_code = 0;
  sim::HostId mom = sim::kInvalidHost;  ///< mom whose real run finished
  bool operator==(const JDoneRequest&) const = default;
};

template <class Ar> void fields(Ar& ar, JMutexRequest& m) {
  ar.tag(PluginOp::kJMutex);
  ar(m.job, m.head, m.mom, m.replicas);
}
template <class Ar> void fields(Ar& ar, JDoneRequest& m) {
  ar.tag(PluginOp::kJDone);
  ar(m.job, m.exit_code, m.mom);
}
template <class Ar> void fields(Ar& ar, JMutexResponse& m) { ar(m.won); }

/// Replay-mode state transfer: the compacted command log.
struct CommandLog {
  std::vector<sim::Payload> requests;  ///< PBS requests to replay, in order
  /// The donor's next job id. Compaction drops terminal jobs, so the highest
  /// forced id in `requests` can lag the donor's counter; without this the
  /// joiner would hand out ids the group already used and every later submit
  /// would diverge across heads.
  pbs::JobId next_job_id = 0;
  bool operator==(const CommandLog&) const = default;
};
template <class Ar> void fields(Ar& ar, CommandLog& m) {
  ar(m.requests, m.next_job_id);
}

/// jmutex arbitration state shipped alongside every state transfer. The
/// claim table is part of the replicated decision state: a joiner that
/// arbitrates from a blank slate would pin a fresh claim list for a job the
/// group already placed, rank the stale relaunch's mom first, and grant a
/// second real execution (the non-exclusive selectors can pick a different
/// mom than the original run, so the mom-side instance dedup never fires).
struct MutexClaim {
  sim::HostId mom = sim::kInvalidHost;
  gcs::MemberId head = sim::kInvalidHost;
  bool operator==(const MutexClaim&) const = default;
};
struct MutexEntry {
  pbs::JobId job = pbs::kInvalidJob;
  uint32_t max_real = 1;
  bool done = false;
  sim::HostId winner_mom = sim::kInvalidHost;
  int32_t exit_code = 0;
  std::vector<MutexClaim> claims;  ///< delivered claims, in total order
  bool operator==(const MutexEntry&) const = default;
};
struct MutexTable {
  std::vector<MutexEntry> entries;   ///< one per arbitrated job, id order
  std::vector<pbs::JobId> terminal;  ///< jobs past any terminal state
  std::vector<sim::HostId> revoked;  ///< moms whose failure was revoked
  bool operator==(const MutexTable&) const = default;
};
template <class Ar> void fields(Ar& ar, MutexClaim& m) { ar(m.mom, m.head); }
template <class Ar> void fields(Ar& ar, MutexEntry& m) {
  ar(m.job, m.max_real, m.done, m.winner_mom, m.exit_code, m.claims);
}
template <class Ar> void fields(Ar& ar, MutexTable& m) {
  ar(m.entries, m.terminal, m.revoked);
}

/// State-transfer blob header: distinguishes replay logs from snapshots so
/// a mixed-mode misconfiguration fails loudly instead of corrupting state.
enum class TransferKind : uint8_t { kReplayLog = 1, kSnapshot = 2 };
struct TransferEnvelope {
  TransferKind kind = TransferKind::kReplayLog;
  sim::Payload body;     ///< command log or PBS snapshot, per `kind`
  sim::Payload mutexes;  ///< encoded MutexTable (may be empty: blank table)
  bool operator==(const TransferEnvelope&) const = default;
};
template <class Ar> void fields(Ar& ar, TransferEnvelope& m) {
  ar(m.kind, m.body, m.mutexes);
}

}  // namespace joshua
