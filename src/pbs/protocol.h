// PBS service-interface wire protocol.
//
// This is the interface JOSHUA wraps (external replication works purely at
// this boundary, exactly as the paper wraps TORQUE's PBS interface).
// Client->server ops mirror the PBS user commands; server<->mom ops carry
// job launch/kill/completion traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pbs/job.h"

namespace pbs {

enum class Op : uint8_t {
  // client -> server (PBS user commands)
  kSubmit = 1,   ///< qsub
  kStat = 2,     ///< qstat
  kDelete = 3,   ///< qdel
  kSignal = 4,   ///< qsig
  kHold = 5,     ///< qhold
  kRelease = 6,  ///< qrls
  /// Requeue a running job so a higher-priority one can take its nodes.
  /// Never issued by clients: JOSHUA injects it after an ordered kPreempt
  /// group op so every head requeues the victim at the same stream point.
  kPreempt = 7,
  /// A qstat whose answer nobody reads. JOSHUA applies an ordered jstat
  /// with it at every head but the one the client contacted: the server
  /// charges it as a kStat and answers with the status alone. JOSHUA
  /// refuses it from clients.
  kStatQuiet = 8,
  // management (state transfer support)
  kDumpState = 10,
  kLoadState = 11,
  // server -> mom
  kMomLaunch = 20,
  kMomKill = 21,
  kMomEmuComplete = 22,  ///< head tells mom an emulated launch finished
  kMomPing = 23,         ///< heartbeat probe (server -> mom)
  // mom -> server
  kJobReport = 30,  ///< job completion / statistics report
};

/// Error codes roughly matching PBS exit semantics.
enum class Status : uint8_t {
  kOk = 0,
  kUnknownJob = 1,
  kInvalidState = 2,
  kUnsupported = 3,
  kServerBusy = 4,
  kInternal = 5,
};

std::string_view to_string(Status s);

struct SubmitRequest {
  JobSpec spec;
  /// Normally kInvalidJob (the server numbers the job). State-transfer
  /// replay sets the original id so a joining head rebuilds an identical
  /// queue (the paper copies the server's sequence state with its config).
  JobId forced_id = kInvalidJob;
  bool operator==(const SubmitRequest&) const = default;
};
struct SubmitResponse {
  Status status = Status::kOk;
  /// First id assigned; an array submit owns [job_id, job_id + count).
  JobId job_id = kInvalidJob;
  uint32_t count = 1;  ///< sub-jobs created (1 for a plain submit)
  bool operator==(const SubmitResponse&) const = default;
};

struct StatRequest {
  JobId job_id = kInvalidJob;  ///< 0 = all jobs
  bool include_complete = true;
  bool operator==(const StatRequest&) const = default;
};
/// A StatRequest's fields under Op::kStatQuiet: the same bytes as the
/// stat it stands for, but the type byte. Answered with a SimpleResponse.
struct QuietStatRequest {
  StatRequest stat;
  bool operator==(const QuietStatRequest&) const = default;
};
struct StatResponse {
  Status status = Status::kOk;
  std::vector<Job> jobs;
  bool operator==(const StatResponse&) const = default;
};

struct DeleteRequest {
  JobId job_id = kInvalidJob;
  bool operator==(const DeleteRequest&) const = default;
};
struct SimpleResponse {
  Status status = Status::kOk;
  bool operator==(const SimpleResponse&) const = default;
};

struct SignalRequest {
  JobId job_id = kInvalidJob;
  int32_t signal = 15;  ///< SIGTERM by default
  bool operator==(const SignalRequest&) const = default;
};

struct HoldRequest {
  JobId job_id = kInvalidJob;
  bool operator==(const HoldRequest&) const = default;
};
struct ReleaseRequest {
  JobId job_id = kInvalidJob;
  bool operator==(const ReleaseRequest&) const = default;
};

struct DumpStateRequest {
  bool operator==(const DumpStateRequest&) const = default;
};
struct DumpStateResponse {
  Status status = Status::kOk;
  sim::Payload state;
  bool operator==(const DumpStateResponse&) const = default;
};
struct LoadStateRequest {
  sim::Payload state;
  bool operator==(const LoadStateRequest&) const = default;
};

struct MomLaunchRequest {
  Job job;                 ///< full record (mom needs spec + id)
  sim::HostId server_host = sim::kInvalidHost;  ///< requesting head
  bool operator==(const MomLaunchRequest&) const = default;
};
struct MomLaunchResponse {
  Status status = Status::kOk;
  bool emulated = false;   ///< launch attached to an existing instance
  bool operator==(const MomLaunchResponse&) const = default;
};

struct MomKillRequest {
  JobId job_id = kInvalidJob;
  sim::HostId server_host = sim::kInvalidHost;
  /// Preemption kill: terminate the instance without emitting a completion
  /// report. The requeued job must not be completed by its own death echo;
  /// every head already knows about the requeue from the ordered stream.
  bool quiet = false;
  bool operator==(const MomKillRequest&) const = default;
};

struct PreemptRequest {
  JobId job_id = kInvalidJob;
  bool operator==(const PreemptRequest&) const = default;
};

struct MomEmuCompleteRequest {
  JobId job_id = kInvalidJob;
  int32_t exit_code = 0;
  bool operator==(const MomEmuCompleteRequest&) const = default;
};

struct MomPingRequest {
  sim::HostId server_host = sim::kInvalidHost;
  uint64_t seq = 0;  ///< heartbeat sequence number (echoed back)
  bool operator==(const MomPingRequest&) const = default;
};
struct MomPingResponse {
  Status status = Status::kOk;
  uint64_t seq = 0;
  uint32_t running_jobs = 0;  ///< instances currently on this mom
  bool operator==(const MomPingResponse&) const = default;
};

struct JobReport {
  JobId job_id = kInvalidJob;
  int32_t exit_code = 0;
  bool cancelled = false;
  sim::Time start_time{0};
  sim::Time end_time{0};
  sim::HostId mom_host = sim::kInvalidHost;
  bool operator==(const JobReport&) const = default;
};

// -- wire layouts (net/wire.h) ------------------------------------------------
// A request is [u8 op][body]; net::peek_tag<Op> reads the op. A response is
// its body alone.

template <class Ar> void fields(Ar& ar, SubmitRequest& m) {
  ar.tag(Op::kSubmit);
  ar(m.spec, m.forced_id);
}
template <class Ar> void fields(Ar& ar, StatRequest& m) {
  ar.tag(Op::kStat);
  ar(m.job_id, m.include_complete);
}
template <class Ar> void fields(Ar& ar, QuietStatRequest& m) {
  ar.tag(Op::kStatQuiet);
  ar(m.stat.job_id, m.stat.include_complete);
}
template <class Ar> void fields(Ar& ar, DeleteRequest& m) {
  ar.tag(Op::kDelete);
  ar(m.job_id);
}
template <class Ar> void fields(Ar& ar, SignalRequest& m) {
  ar.tag(Op::kSignal);
  ar(m.job_id, m.signal);
}
template <class Ar> void fields(Ar& ar, HoldRequest& m) {
  ar.tag(Op::kHold);
  ar(m.job_id);
}
template <class Ar> void fields(Ar& ar, ReleaseRequest& m) {
  ar.tag(Op::kRelease);
  ar(m.job_id);
}
template <class Ar> void fields(Ar& ar, PreemptRequest& m) {
  ar.tag(Op::kPreempt);
  ar(m.job_id);
}
template <class Ar> void fields(Ar& ar, DumpStateRequest&) {
  ar.tag(Op::kDumpState);
}
template <class Ar> void fields(Ar& ar, LoadStateRequest& m) {
  ar.tag(Op::kLoadState);
  ar(m.state);
}
template <class Ar> void fields(Ar& ar, MomLaunchRequest& m) {
  ar.tag(Op::kMomLaunch);
  ar(m.job, m.server_host);
}
template <class Ar> void fields(Ar& ar, MomKillRequest& m) {
  ar.tag(Op::kMomKill);
  ar(m.job_id, m.server_host, m.quiet);
}
template <class Ar> void fields(Ar& ar, MomEmuCompleteRequest& m) {
  ar.tag(Op::kMomEmuComplete);
  ar(m.job_id, m.exit_code);
}
template <class Ar> void fields(Ar& ar, MomPingRequest& m) {
  ar.tag(Op::kMomPing);
  ar(m.server_host, m.seq);
}
template <class Ar> void fields(Ar& ar, JobReport& m) {
  ar.tag(Op::kJobReport);
  ar(m.job_id, m.exit_code, m.cancelled, m.start_time, m.end_time,
     m.mom_host);
}

template <class Ar> void fields(Ar& ar, SubmitResponse& m) {
  ar(m.status, m.job_id, m.count);
}
template <class Ar> void fields(Ar& ar, StatResponse& m) {
  ar(m.status, m.jobs);
}
template <class Ar> void fields(Ar& ar, SimpleResponse& m) { ar(m.status); }
template <class Ar> void fields(Ar& ar, DumpStateResponse& m) {
  ar(m.status, m.state);
}
template <class Ar> void fields(Ar& ar, MomLaunchResponse& m) {
  ar(m.status, m.emulated);
}
template <class Ar> void fields(Ar& ar, MomPingResponse& m) {
  ar(m.status, m.seq, m.running_jobs);
}

/// A request's wire bytes (net::encode under the name benchmarks use).
template <class Request>
sim::Payload encode_request(const Request& request) {
  return net::encode(request);
}

}  // namespace pbs
