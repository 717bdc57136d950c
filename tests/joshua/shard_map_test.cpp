// The shard map (ShardLayout's partition rules) edge cases: the partition
// function must degenerate exactly to the single-group routing, refuse ids
// no shard can own, and place deterministically -- every router and head
// computing the same answer is what stands in for a replicated directory
// service.
#include "joshua/shard_layout.h"

#include <gtest/gtest.h>

#include "joshua/server.h"
#include "joshua/shard_layout_cases.h"
#include "util/config.h"
#include "util/rng.h"

namespace {

using joshua::ShardLayout;

TEST(ShardMap, SingleShardDegeneratesToTodaysRouting) {
  // Default-constructed and explicit 1-shard layouts behave like the
  // monolithic cluster: every id owned by the one group, every queue
  // placed there, ids numbered from 1.
  ShardLayout def;
  ShardLayout explicit_one;
  explicit_one.count = 1;
  explicit_one.heads = {{0, 1}};
  for (const ShardLayout* map : {&def, &explicit_one}) {
    EXPECT_NO_THROW(map->validate(2, 2, true));
    EXPECT_NO_THROW(map->validate(2, 2, false)) << "plain TORQUE is 1 shard";
    EXPECT_EQ(map->shard_count(), 1u);
    EXPECT_FALSE(map->sharded());
    EXPECT_FALSE(map->routes_by_queue());
    EXPECT_EQ(map->first_id(0), 1u);
    EXPECT_EQ(map->owner_of(1), 0u);
    EXPECT_EQ(map->owner_of(123456789), 0u);
    EXPECT_EQ(map->place("batch"), 0u);
    EXPECT_EQ(map->place("anything", 77), 0u);
  }
  EXPECT_FALSE(def.owner_of(pbs::kInvalidJob).has_value());
  EXPECT_EQ(def.stride(), joshua::kDefaultIdStride)
      << "stride 0 selects the default block";
}

TEST(ShardMap, OwnerOfMatchesIdBlocks) {
  ShardLayout map;
  map.count = 4;
  map.id_stride = 100;
  EXPECT_EQ(map.first_id(0), 1u);
  EXPECT_EQ(map.first_id(3), 301u);
  EXPECT_EQ(map.owner_of(1), 0u);
  EXPECT_EQ(map.owner_of(100), 0u);
  EXPECT_EQ(map.owner_of(101), 1u);
  EXPECT_EQ(map.owner_of(400), 3u);
}

TEST(ShardMap, UnknownIdsRejected) {
  ShardLayout map;
  map.count = 4;
  map.id_stride = 100;
  // Beyond every shard's block: no shard can ever have issued these.
  EXPECT_FALSE(map.owner_of(pbs::kInvalidJob).has_value());
  EXPECT_FALSE(map.owner_of(401).has_value());
  EXPECT_FALSE(map.owner_of(100000).has_value());
}

TEST(ShardMap, AgreesWithServerSideShardIdentity) {
  // The router's owner_of and the server's owns() are the same partition
  // evaluated at the two ends of the wire; they must never disagree.
  ShardLayout map;
  map.count = 3;
  map.id_stride = 50;
  for (uint32_t s = 0; s < 3; ++s) {
    joshua::ShardIdentity ident;
    ident.shard = s;
    ident.count = 3;
    ident.id_stride = 50;
    for (pbs::JobId id = 1; id <= 160; ++id)
      EXPECT_EQ(map.owner_of(id) == std::optional<uint32_t>(s),
                ident.owns(id))
          << "id " << id << " shard " << s;
  }
}

TEST(ShardMap, QueueGlobRouting) {
  ShardLayout map;
  map.count = 3;
  map.queues = {{"batch*"}, {"debug", "interactive"}, {"*"}};
  EXPECT_NO_THROW(map.validate(3, 3, true));
  EXPECT_TRUE(map.routes_by_queue());
  EXPECT_EQ(map.place("batch"), 0u);
  EXPECT_EQ(map.place("batch_long"), 0u);
  EXPECT_EQ(map.place("debug"), 1u);
  EXPECT_EQ(map.place("interactive"), 1u);
  EXPECT_EQ(map.place("gpu"), 2u) << "catch-all shard takes the rest";
  // Salt must not perturb glob routing -- queue ownership is a contract.
  EXPECT_EQ(map.place("batch", 999), 0u);
}

TEST(ShardMap, DeterministicHashPlacementProperty) {
  // Property, 3 seeds: two maps built from the same config agree on every
  // placement, the placement is within range, and spreading actually
  // happens (no shard starves over a few hundred draws).
  for (uint64_t seed : {7u, 19u, 23u}) {
    jutil::Rng rng(seed);
    ShardLayout a;
    a.count = static_cast<int>(rng.uniform(2, 8));
    ShardLayout b = a;
    std::vector<uint64_t> hits(a.shard_count(), 0);
    for (int i = 0; i < 400; ++i) {
      std::string queue = "q" + std::to_string(rng.next_u64(1u << 20));
      uint64_t salt = rng.next_u64(1ull << 40);
      uint32_t placed = a.place(queue, salt);
      EXPECT_EQ(placed, b.place(queue, salt)) << "seed " << seed;
      ASSERT_LT(placed, a.shard_count());
      ++hits[placed];
    }
    for (uint32_t s = 0; s < a.shard_count(); ++s)
      EXPECT_GT(hits[s], 0u) << "seed " << seed << " starved shard " << s;
  }
}

TEST(ShardMap, ValidationRejectsBadPartitions) {
  // Code-built options: the validator refuses every case of the shared
  // table, and so does the builder (it validates before wiring anything).
  for (const layoutcases::BadLayout& c : layoutcases::bad_layouts()) {
    const joshua::ClusterOptions& o = c.options;
    EXPECT_THROW(o.shards.validate(o.head_count, o.compute_count,
                                   o.with_joshua),
                 jutil::ConfigError)
        << c.what;
    EXPECT_THROW(joshua::Cluster{o}, jutil::ConfigError) << c.what;
  }
  // The base the table edits is itself valid.
  joshua::ClusterOptions base = layoutcases::two_shards();
  EXPECT_NO_THROW(base.shards.validate(base.head_count, base.compute_count,
                                       base.with_joshua));
}

}  // namespace
