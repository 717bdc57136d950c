#include "joshua/shard_layout.h"

#include <algorithm>
#include <limits>
#include <set>

#include "telemetry/report_diff.h"
#include "util/config.h"

namespace joshua {

namespace {

/// FNV-1a over the queue name, then the salt bytes. Stable across builds
/// and hosts -- placement must be a pure function of the layout.
uint64_t fnv1a(std::string_view text, uint64_t salt) {
  uint64_t h = 14695981039346656037ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= (salt >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void reject(const std::string& why) {
  throw jutil::ConfigError("shards: " + why);
}

}  // namespace

std::optional<uint32_t> id_block_owner(pbs::JobId id, uint32_t count,
                                       pbs::JobId stride) {
  if (id == pbs::kInvalidJob) return std::nullopt;
  pbs::JobId block = (id - 1) / stride;
  if (block >= count) return std::nullopt;
  return static_cast<uint32_t>(block);
}

bool ShardLayout::routes_by_queue() const {
  for (const auto& globs : queues)
    if (!globs.empty()) return true;
  return false;
}

void ShardLayout::validate(int head_count, int compute_count,
                           bool with_joshua) const {
  if (count < 1) reject("count must be >= 1, got " + std::to_string(count));
  std::string of_count = " shard count (" + std::to_string(count) + ")";
  if (stride() > std::numeric_limits<pbs::JobId>::max() /
                     static_cast<pbs::JobId>(count))
    reject("stride " + std::to_string(stride()) +
           " puts the last id block past the 64-bit id space for the" +
           of_count);
  if (sharded() && !with_joshua)
    reject("a sharded plane needs JOSHUA (plain TORQUE is one server)");
  if (compute_count < count || compute_count % count != 0)
    reject("computes (" + std::to_string(compute_count) +
           ") must be a positive multiple of the" + of_count);

  if (heads.empty()) {
    if (head_count < count || head_count % count != 0)
      reject("heads (" + std::to_string(head_count) +
             ") must be a positive multiple of the" + of_count +
             " when no shard lists its heads");
  } else {
    if (heads.size() != static_cast<size_t>(count))
      reject(std::to_string(heads.size()) + " head lists for the" + of_count);
    std::set<int> assigned;
    for (size_t s = 0; s < heads.size(); ++s) {
      if (heads[s].empty())
        reject("shard " + std::to_string(s) + " has no heads");
      for (int head : heads[s]) {
        if (head < 0 || head >= head_count)
          reject("shard " + std::to_string(s) + ": head " +
                 std::to_string(head) + " out of range (heads = " +
                 std::to_string(head_count) + ")");
        if (!assigned.insert(head).second)
          reject("head " + std::to_string(head) +
                 " assigned to more than one shard");
      }
    }
    if (static_cast<int>(assigned.size()) != head_count)
      reject(std::to_string(head_count - static_cast<int>(assigned.size())) +
             " head(s) assigned to no shard");
  }

  // Queue globs: either no shard routes by queue (hash placement), or the
  // globs must be overlap-free and leave no queue unassigned.
  if (!routes_by_queue()) return;
  if (queues.size() != static_cast<size_t>(count))
    reject(std::to_string(queues.size()) + " queue glob lists for the" +
           of_count);
  bool catch_all = false;
  std::set<std::string> seen;
  for (size_t s = 0; s < queues.size(); ++s) {
    if (queues[s].empty())
      reject("shard " + std::to_string(s) +
             " has no queue globs while other shards route by queue");
    for (const std::string& glob : queues[s]) {
      if (glob == "*") catch_all = true;
      if (!seen.insert(glob).second)
        reject("queue glob '" + glob + "' claimed by more than one shard");
    }
  }
  // A literal (wildcard-free) queue name matched by another shard's glob is
  // an overlap even though the strings differ: both shards would claim
  // submits to that queue.
  for (size_t s = 0; s < queues.size(); ++s) {
    for (const std::string& literal : queues[s]) {
      if (literal.find_first_of("*?") != std::string::npos) continue;
      for (size_t t = 0; t < queues.size(); ++t) {
        if (t == s) continue;
        for (const std::string& glob : queues[t]) {
          // The catch-all is the fallback, consulted only when no specific
          // glob matches -- it overlaps nothing by construction.
          if (glob == "*") continue;
          if (telemetry::glob_match(glob, literal))
            reject("queue '" + literal + "' (shard " + std::to_string(s) +
                   ") overlaps glob '" + glob + "' (shard " +
                   std::to_string(t) + ")");
        }
      }
    }
  }
  if (!catch_all)
    reject("no shard owns the catch-all '*' glob; queues matching no glob "
           "would be unassigned");
}

std::vector<std::vector<int>> ShardLayout::head_sets(int head_count) const {
  std::vector<std::vector<int>> sets = heads;
  if (sets.empty()) {
    int per = head_count / static_cast<int>(shard_count());
    sets.resize(shard_count());
    for (int h = 0; h < head_count; ++h)
      sets[static_cast<size_t>(h / per)].push_back(h);
  }
  for (auto& set : sets) std::sort(set.begin(), set.end());
  return sets;
}

std::optional<uint32_t> ShardLayout::shard_of_queue(
    std::string_view queue) const {
  if (!routes_by_queue()) return std::nullopt;
  // First match within a shard is fine: validation made cross-shard matches
  // impossible for literal names, and the catch-all backstops the rest.
  for (size_t s = 0; s < queues.size(); ++s)
    for (const std::string& glob : queues[s])
      if (glob != "*" && telemetry::glob_match(glob, queue))
        return static_cast<uint32_t>(s);
  for (size_t s = 0; s < queues.size(); ++s)
    for (const std::string& glob : queues[s])
      if (glob == "*") return static_cast<uint32_t>(s);
  return std::nullopt;  // unreachable for a validated layout
}

uint32_t ShardLayout::place(std::string_view queue, uint64_t salt) const {
  if (!sharded()) return 0;
  if (std::optional<uint32_t> s = shard_of_queue(queue)) return *s;
  return static_cast<uint32_t>(fnv1a(queue, salt) % shard_count());
}

}  // namespace joshua
