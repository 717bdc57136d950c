// ShardLayout: the partition of a federated control plane, and the one copy
// of its rules.
//
// A federation repeats the paper's unmodified replication group once per
// shard. The job-id space is carved into contiguous blocks of `stride()`
// ids -- shard s owns (s*stride, (s+1)*stride] -- so ownership of any id the
// system ever issued is a pure computation, with no directory service to
// replicate or fail over. Queue ownership is either explicit (per-shard
// glob lists, validated overlap-free and total) or implicit (a stable hash
// of the queue name spreads submits across shards).
//
// Everything here is deterministic and state-free: the cluster builder, the
// router, every head and the deployment-file parser evaluate the same
// functions, so shards order commands independently without ever
// disagreeing about who owns what.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pbs/job.h"

namespace joshua {

/// Default job-id block per shard: 2^32 ids. Large enough that no shard
/// exhausts its block over any realistic campaign, small enough that 2^32
/// shards fit the 64-bit id space.
constexpr pbs::JobId kDefaultIdStride = 1ull << 32;

/// The id-block rule: the shard among `count` whose block of `stride` ids
/// contains `id`, or nullopt for kInvalidJob and ids beyond every block (no
/// shard can ever have issued them).
std::optional<uint32_t> id_block_owner(pbs::JobId id, uint32_t count,
                                       pbs::JobId stride);

/// The deployment file's `shards` section. count == 1 is the paper's single
/// replication group; count > 1 makes joshua::Cluster wire one gcs group,
/// PBS replica set and set of mom plugins per shard.
struct ShardLayout {
  int count = 1;
  /// Job-id block size per shard; 0 = kDefaultIdStride.
  pbs::JobId id_stride = 0;
  /// Per shard: indexes into the cluster's head list, partitioning it.
  /// Empty = split the head list contiguously into equal shards.
  std::vector<std::vector<int>> heads;
  /// Per shard: queue globs this shard owns. Empty everywhere = submits
  /// place by hash of the queue name.
  std::vector<std::vector<std::string>> queues;

  bool sharded() const { return count > 1; }
  uint32_t shard_count() const {
    return count < 1 ? 1u : static_cast<uint32_t>(count);
  }
  pbs::JobId stride() const {
    return id_stride != 0 ? id_stride : kDefaultIdStride;
  }
  /// True when submits route by queue globs rather than by hash.
  bool routes_by_queue() const;

  /// Throws jutil::ConfigError unless this layout can be wired over a
  /// cluster of `head_count` heads and `compute_count` compute nodes: at
  /// least one shard whose id blocks fit the 64-bit id space; computes (and
  /// heads, unless listed) splitting evenly; head lists partitioning the
  /// head list; queue globs overlap-free and total; JOSHUA present when
  /// sharded (plain TORQUE is one server).
  void validate(int head_count, int compute_count, bool with_joshua) const;

  /// Head indexes per shard, ascending: the listed sets, or the contiguous
  /// split. Requires a validated layout.
  std::vector<std::vector<int>> head_sets(int head_count) const;

  /// First job id of a shard's block (what its PBS replicas number from).
  pbs::JobId first_id(uint32_t shard) const {
    return static_cast<pbs::JobId>(shard) * stride() + 1;
  }
  std::optional<uint32_t> owner_of(pbs::JobId id) const {
    return id_block_owner(id, shard_count(), stride());
  }

  /// Glob-routing lookup: the shard owning `queue`, or nullopt when this
  /// layout routes by hash. Validation guarantees a match in glob mode.
  std::optional<uint32_t> shard_of_queue(std::string_view queue) const;

  /// Submit placement: glob owner when routing by queue, otherwise a stable
  /// FNV-1a hash of (queue, salt) modulo the shard count. The salt lets a
  /// router spread a stream of same-queue submits; placement is a pure
  /// function of (layout, queue, salt) -- identical on every caller.
  uint32_t place(std::string_view queue, uint64_t salt = 0) const;
};

}  // namespace joshua
