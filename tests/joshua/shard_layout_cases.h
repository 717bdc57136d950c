// One table of layouts that cannot be wired. ShardLayout::validate is the
// only copy of the shard rules, and both of its front ends must refuse every
// case: code-built ClusterOptions (shard_map_test) and the deployment file
// (config_file_test).
#pragma once

#include <string>
#include <vector>

#include "joshua/cluster.h"

namespace layoutcases {

struct BadLayout {
  std::string what;
  joshua::ClusterOptions options;
};

/// A valid 2-shard base: 4 heads, 2 computes, contiguous split, hash
/// placement. Every case breaks exactly one rule of it.
inline joshua::ClusterOptions two_shards() {
  joshua::ClusterOptions options;
  options.head_count = 4;
  options.compute_count = 2;
  options.cal = sim::fast_calibration();
  options.shards.count = 2;
  return options;
}

inline std::vector<BadLayout> bad_layouts() {
  std::vector<BadLayout> cases;
  auto add = [&](std::string what, auto edit) {
    joshua::ClusterOptions options = two_shards();
    edit(options);
    cases.push_back({std::move(what), std::move(options)});
  };
  add("zero shards", [](auto& o) { o.shards.count = 0; });
  // stride 0 selects the default block; a stride whose last block leaves
  // the 64-bit id space is the stride no shard can number from.
  add("stride overflows the id space", [](auto& o) {
    o.shards.count = 4;
    o.shards.id_stride = 1ull << 62;
    o.compute_count = 4;
  });
  add("computes not a multiple of the shard count",
      [](auto& o) { o.compute_count = 3; });
  add("fewer computes than shards", [](auto& o) { o.compute_count = 1; });
  add("heads not divisible without head lists",
      [](auto& o) { o.head_count = 5; });
  add("sharded plain TORQUE", [](auto& o) { o.with_joshua = false; });
  add("head claimed by two shards",
      [](auto& o) { o.shards.heads = {{0, 1}, {1, 2, 3}}; });
  add("head assigned to no shard",
      [](auto& o) { o.shards.heads = {{0, 1}, {2}}; });
  add("head index out of range",
      [](auto& o) { o.shards.heads = {{0, 1}, {2, 4}}; });
  add("shard with no heads while others list theirs",
      [](auto& o) { o.shards.heads = {{0, 1, 2, 3}, {}}; });
  add("queue glob lists for fewer shards than the count", [](auto& o) {
    o.shards.count = 3;
    o.head_count = 3;
    o.compute_count = 3;
    o.shards.queues = {{"a"}, {"*"}};
  });
  add("empty glob list while others route by queue",
      [](auto& o) { o.shards.queues = {{"batch*"}, {}}; });
  add("duplicate glob",
      [](auto& o) { o.shards.queues = {{"batch"}, {"batch", "*"}}; });
  // A literal name one shard claims that another shard's glob also
  // matches: both would accept submits to it.
  add("literal queue overlaps another shard's glob",
      [](auto& o) { o.shards.queues = {{"batch*", "*"}, {"batch9"}}; });
  add("literal queue overlaps with head lists given", [](auto& o) {
    o.shards.heads = {{0, 1}, {2, 3}};
    o.shards.queues = {{"batch*", "*"}, {"batch"}};
  });
  // No catch-all: a queue matching no glob would have no owner.
  add("no catch-all glob",
      [](auto& o) { o.shards.queues = {{"batch*"}, {"debug*"}}; });
  return cases;
}

}  // namespace layoutcases
