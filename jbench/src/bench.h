// The repository benchmark: workloads, per-rep results and the helpers the
// self-test checks. README.md in this directory explains what each workload
// is for and which layer each metric belongs to.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "joshua/cluster.h"

namespace jbench {

class SpanLog;

// -- statistics ---------------------------------------------------------------

/// Highest integer percentile in [1, 99] that leaves at least `beyond`
/// samples above its nearest-rank position; 0 when even p1 does not.
int top_percentile(size_t n, size_t beyond = 10);

/// Nearest-rank percentile of an ascending sample; 0 on an empty one.
double nearest_rank(const std::vector<double>& sorted, double p);

double median(std::vector<double> v);

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
uint64_t fnv1a(const uint8_t* data, size_t len, uint64_t h = kFnvOffset);

// -- configuration guard ------------------------------------------------------

/// Names of JOSHUA_* variables in `envp`. The default initializers of
/// ClusterOptions, GroupConfig and SchedulerConfig read several of them, so
/// a stray export would benchmark a different program.
std::vector<std::string> joshua_env_vars(char** envp);

// -- workloads ----------------------------------------------------------------

enum class Kind : uint8_t { kSub = 0, kStat = 1, kDel = 2 };
constexpr int kKinds = 3;
constexpr std::array<std::string_view, kKinds> kKindNames = {"jsub", "jstat",
                                                             "jdel"};

/// One planned client command. Targets name jobs by the plan index of the
/// jsub that created them, so the plan is a pure function of the seed.
struct Command {
  Kind kind = Kind::kSub;
  int client = 0;
  /// jdel/jstat: plan index of the target jsub; -1 = jstat of every job.
  int target = -1;
  /// Open loop: due time, relative to the start of the timed phase.
  sim::Duration due = sim::kDurationZero;
  /// Closed loop: the client's pause after this command's reply.
  sim::Duration think = sim::kDurationZero;
  pbs::JobSpec spec;  ///< jsub only
};

struct Workload {
  std::string name;
  joshua::ClusterOptions cluster;
  bool open_loop = false;
  int clients = 4;
  /// Closed loops: mean pause between a reply and the client's next command.
  sim::Duration think = sim::kDurationZero;
  /// The timed phase is `blocks` blocks of `block[k]` commands of each kind
  /// k (jsub, jstat, jdel). A fixed count, never a duration: per-command
  /// cost grows with the job table, so a faster build must not get to run
  /// more, costlier commands.
  std::array<int, kKinds> block{};
  int blocks = 0;
  /// Jobs submitted during set-up so deletes always have a target.
  int backlog = 0;
  /// Closed loop in which every client runs `blocks` cycles of jsub ->
  /// jstat -> jdel of its own job, instead of drawing from one mixed stream.
  bool cycle_own_job = false;
  /// Open loop: one command due every `interval` on average.
  sim::Duration interval = sim::kDurationZero;
  /// Open loop: the crashed head stays down this long, and gets this long
  /// after its restart to rejoin before the rep gives up on it.
  sim::Duration outage = sim::kDurationZero;
  sim::Duration rejoin_limit = sim::kDurationZero;
  /// Simulated time a rep may take before pending commands count as failed.
  sim::Duration deadline = sim::kDurationZero;
  /// Slice length of the drive loop (the run_until span granularity).
  sim::Duration slice = sim::kDurationZero;
  /// Set-up: quiet time after the backlog, so its launch traffic drains.
  sim::Duration warmup_drain = sim::kDurationZero;
  /// After the last reply: how long slow heads get to catch up before the
  /// replica tables are compared.
  sim::Duration settle = sim::kDurationZero;
};

/// The workload named `name`; throws std::invalid_argument when unknown.
Workload make_workload(std::string_view name, uint64_t seed);
const std::vector<std::string>& workload_names();

/// The planned command stream: set-up backlog first (Workload::backlog
/// jsubs), then the timed phase. A pure function of (workload, seed).
std::vector<Command> plan_commands(const Workload& w, uint64_t seed);

// -- one rep ------------------------------------------------------------------

struct RepResult {
  double setup_s = 0;  ///< host: build, boot to one view, warm-up backlog
  double timed_s = 0;  ///< host: the timed phase
  std::array<uint64_t, kKinds> attempted{};
  std::array<uint64_t, kKinds> failed{};
  /// Simulated latency per kind in ms, ascending; a failed command counts
  /// as +infinity.
  std::array<std::vector<double>, kKinds> latency_ms;
  double ordered_cmds_per_s = 0;
  double failover_gap_ms = 0;  ///< 0 unless a head crashed
  double rejoin_s = 0;         ///< 0 unless a head crashed
  uint64_t digest = 0;         ///< live heads' common PBS table digest
  /// Per-layer simulated metrics, by name (deterministic).
  std::map<std::string, double> layer;
  /// Sample counts behind the percentile metrics of `layer`.
  std::map<std::string, double> samples;
  /// Inputs for the host-time layer rigs.
  uint64_t gcs_msgs = 0;
  double gcs_mean_payload = 0;
  int gcs_senders = 0;
  uint64_t events = 0;
  double mean_pending = 0;
  std::vector<std::string> errors;

  uint64_t commands() const;
  uint64_t completed() const;
  /// Every simulated metric and the digest, printed canonically: two reps
  /// of one seed must produce the same string.
  std::string sim_signature() const;
};

/// Build a fresh cluster, boot it, run the set-up backlog, then the timed
/// phase; check the replicas afterwards. `spans` may be null.
RepResult run_rep(const Workload& w, const std::vector<Command>& plan,
                  bool traced, SpanLog* spans, int rep);

// -- host-time layer rigs (traced runs) ----------------------------------------

/// PBS alone: replay the plan through qsub/qstat/qdel against plain TORQUE.
/// Returns host microseconds per timed-phase command.
double pbs_us_per_cmd(const Workload& w, const std::vector<Command>& plan,
                      SpanLog* spans);
/// A bare gcs group with the workload's heads, calibration and timers that
/// orders `msgs` AGREED messages of `payload` bytes, one at a time, from
/// `senders` members in turn. Returns host microseconds per message.
double gcs_us_per_msg(const Workload& w, uint64_t msgs, size_t payload,
                      int senders, SpanLog* spans);
/// The event core alone: schedule/step churn of `events` events at a pending
/// depth of `depth`. Returns host nanoseconds per event.
double sim_ns_per_event(uint64_t events, size_t depth, uint64_t seed,
                        SpanLog* spans);

}  // namespace jbench
