// PBS job model: job specification, runtime record, and the PBS state
// machine (TORQUE-compatible states Q/H/W/R/E/C).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.h"
#include "sim/time.h"

namespace pbs {

using JobId = uint64_t;
constexpr JobId kInvalidJob = 0;

/// PBS job states (subset of TORQUE's qstat letters).
enum class JobState : uint8_t {
  kQueued = 0,     ///< Q - eligible to run
  kHeld = 1,       ///< H - user/operator hold
  kWaiting = 2,    ///< W - waiting for its execution window
  kRunning = 3,    ///< R - started on a mom
  kExiting = 4,    ///< E - finishing up
  kComplete = 5,   ///< C - done (also covers cancelled)
};

std::string_view to_string(JobState s);
char state_letter(JobState s);

/// What the user submits (the qsub arguments + script).
struct JobSpec {
  std::string name = "job";
  std::string user = "user";
  /// Destination queue (qsub -q). The PBS server itself treats every queue
  /// alike (single-queue semantics, as the paper's testbed); the federation
  /// layer routes submits to the shard whose queue globs match.
  std::string queue = "batch";
  uint32_t nodes = 1;           ///< requested node count
  sim::Duration walltime = sim::minutes(10);  ///< requested limit
  sim::Duration run_time = sim::seconds(1);   ///< actual (simulated) runtime
  int32_t priority = 0;
  /// Replication factor: dispatch to `replicas` disjoint node sets;
  /// first-to-finish wins and the losers are reaped. 1 = the paper's
  /// unreplicated compute plane.
  uint32_t replicas = 1;
  std::string script;           ///< payload carried for realism
  /// Node type / feature requests (heterogeneous clusters). Empty = any
  /// node; features are conjunctive ("gpu" AND "bigmem").
  std::string node_type;
  std::vector<std::string> features;
  /// Job-array request (qsub -t 0-(N-1)): the server expands the submit
  /// into `array_count` sub-jobs with consecutive ids and ranks, all
  /// through the ordered stream. 0/1 = plain single job.
  uint32_t array_count = 0;
  /// Sub-job's index within its array; -1 on anything that is not an
  /// expanded array member.
  int32_t array_index = -1;
  bool operator==(const JobSpec&) const = default;
};

/// Server-side runtime record.
struct Job {
  JobId id = kInvalidJob;
  JobSpec spec;
  JobState state = JobState::kQueued;
  sim::Time submit_time{0};
  sim::Time start_time{0};
  sim::Time end_time{0};
  int32_t exit_code = 0;
  bool cancelled = false;
  uint64_t queue_rank = 0;   ///< FIFO position (submission order)
  sim::HostId exec_host = sim::kInvalidHost;  ///< mom host while running
  /// Mother-superior hosts of every live replica (exec_host is the first).
  /// Shrinks as replicas fail or are reaped; empty once the job completes.
  std::vector<sim::HostId> replica_hosts;

  bool terminal() const { return state == JobState::kComplete; }
  bool active() const {
    return state == JobState::kRunning || state == JobState::kExiting;
  }
  bool operator==(const Job&) const = default;
};

/// "17.cluster" style PBS job id string.
std::string job_id_string(JobId id, const std::string& server_suffix);

// -- wire layouts (net/wire.h) ------------------------------------------------

template <class Ar> void fields(Ar& ar, JobSpec& s) {
  ar(s.name, s.user, s.queue, s.nodes, s.walltime, s.run_time, s.priority,
     s.replicas, s.script, s.node_type, s.features, s.array_count,
     s.array_index);
}
template <class Ar> void fields(Ar& ar, Job& j) {
  ar(j.id, j.spec, j.state, j.submit_time, j.start_time, j.end_time,
     j.exit_code, j.cancelled, j.queue_rank, j.exec_host, j.replica_hosts);
}

/// Append a spec's wire bytes to `w` (table digests hash them).
inline void encode_job_spec(net::Writer& w, const JobSpec& spec) { w(spec); }

}  // namespace pbs
