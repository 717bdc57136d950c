#include "joshua/config_file.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "harness/scenario.h"
#include "joshua/shard_layout_cases.h"
#include "testutil.h"

namespace {

using joshua::cluster_options_from_config;
using joshua::cluster_options_to_config;
using joshua::TransferMode;

TEST(ClusterConfig, DefaultsWhenEmpty) {
  joshua::ClusterOptions options = cluster_options_from_config("");
  EXPECT_EQ(options.head_count, 2);
  EXPECT_EQ(options.compute_count, 2);
  EXPECT_EQ(options.transfer, TransferMode::kReplay);
  EXPECT_FALSE(options.quirk_mom);
  EXPECT_TRUE(options.sched.exclusive_cluster);
}

TEST(ClusterConfig, FullFileParses) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    # paper testbed
    heads = 4
    computes = 2
    transfer = snapshot
    auto_rejoin = true
    quirk_mom = true
    require_majority = true
    seed = 99
    scheduling {
      policy = backfill
      exclusive = false
    }
    gcs {
      heartbeat_ms = 50
      suspect_ms = 300
      flush_ms = 900
    }
  )");
  EXPECT_EQ(options.head_count, 4);
  EXPECT_EQ(options.transfer, TransferMode::kSnapshot);
  EXPECT_TRUE(options.auto_rejoin);
  EXPECT_TRUE(options.quirk_mom);
  EXPECT_TRUE(options.require_majority);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.sched.policy, "backfill");
  EXPECT_FALSE(options.sched.exclusive_cluster);
  EXPECT_EQ(options.gcs_heartbeat, sim::msec(50));
  EXPECT_EQ(options.gcs_suspect, sim::msec(300));
  EXPECT_EQ(options.gcs_flush, sim::msec(900));
}

TEST(ClusterConfig, BadValuesThrow) {
  EXPECT_THROW(cluster_options_from_config("transfer = magic"),
               jutil::ConfigError);
  EXPECT_THROW(cluster_options_from_config("heads = 0"), jutil::ConfigError);
  EXPECT_THROW(cluster_options_from_config("heads = few"),
               jutil::ConfigError);
  EXPECT_THROW(
      cluster_options_from_config("scheduling {\n policy = random\n}"),
      jutil::ConfigError);
}

TEST(ClusterConfig, RetiredSchedulerSectionRefused) {
  // Ignored as an unknown key, the old section would quietly run FIFO.
  try {
    cluster_options_from_config("scheduler {\n policy = backfill\n}");
    ADD_FAILURE() << "the scheduler section parsed";
  } catch (const jutil::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'scheduling"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterConfig, UnknownKeysIgnored) {
  joshua::ClusterOptions options =
      cluster_options_from_config("future_knob = 7\nheads = 3");
  EXPECT_EQ(options.head_count, 3);
}

TEST(ClusterConfig, RoundTrip) {
  joshua::ClusterOptions original;
  original.head_count = 3;
  original.compute_count = 1;
  original.transfer = TransferMode::kSnapshot;
  original.quirk_mom = true;
  original.seed = 5;
  original.sched.policy = "backfill";
  original.sched.selector = "replica";
  original.sched.exclusive_cluster = false;
  original.sched.priority_aging = sim::seconds(30);
  original.gcs_suspect = sim::msec(400);

  joshua::ClusterOptions back =
      cluster_options_from_config(cluster_options_to_config(original));
  EXPECT_EQ(back.head_count, 3);
  EXPECT_EQ(back.compute_count, 1);
  EXPECT_EQ(back.transfer, TransferMode::kSnapshot);
  EXPECT_TRUE(back.quirk_mom);
  EXPECT_EQ(back.seed, 5u);
  EXPECT_EQ(back.sched.policy, "backfill");
  EXPECT_EQ(back.sched.selector, "replica");
  EXPECT_FALSE(back.sched.exclusive_cluster);
  EXPECT_EQ(back.sched.priority_aging, sim::seconds(30));
  EXPECT_EQ(back.gcs_suspect, sim::msec(400));
}

TEST(ClusterConfig, SchedulingSectionParses) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    scheduling {
      policy = preempt
      selector = replica
      exclusive = false
      aging_s = 120
    }
  )");
  EXPECT_EQ(options.sched.policy, "preempt");
  EXPECT_EQ(options.sched.selector, "replica");
  EXPECT_FALSE(options.sched.exclusive_cluster);
  EXPECT_EQ(options.sched.priority_aging, sim::seconds(120));

  // Unknown plugin names are deployment mistakes: hard parse errors, never
  // a silent fallback (heads running different policies would diverge).
  EXPECT_THROW(
      cluster_options_from_config("scheduling {\n policy = random\n}"),
      jutil::ConfigError);
  EXPECT_THROW(
      cluster_options_from_config("scheduling {\n selector = wormhole\n}"),
      jutil::ConfigError);
  EXPECT_THROW(
      cluster_options_from_config("scheduling {\n aging_s = -5\n}"),
      jutil::ConfigError);
}

TEST(ClusterConfig, OrderingSectionParsesAndRoundTrips) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    ordering {
      engine = token
      batch = 64
      window = 16
    }
  )");
  EXPECT_EQ(options.ordering, gcs::OrderingMode::kTokenRing);
  EXPECT_EQ(options.order_batch, 64u);
  EXPECT_EQ(options.order_window, 16u);

  joshua::ClusterOptions back =
      cluster_options_from_config(cluster_options_to_config(options));
  EXPECT_EQ(back.ordering, gcs::OrderingMode::kTokenRing);
  EXPECT_EQ(back.order_batch, 64u);
  EXPECT_EQ(back.order_window, 16u);

  // An engine-only section keeps the batch/window defaults.
  joshua::ClusterOptions engine_only = cluster_options_from_config(R"(
    ordering { engine = allack }
  )");
  EXPECT_EQ(engine_only.ordering, gcs::OrderingMode::kAllAck);

  EXPECT_THROW(cluster_options_from_config("ordering { engine = raft }"),
               jutil::ConfigError);
  EXPECT_THROW(cluster_options_from_config("ordering { batch = -3 }"),
               jutil::ConfigError);
  EXPECT_THROW(cluster_options_from_config("ordering { window = -1 }"),
               jutil::ConfigError);
}

TEST(ClusterConfig, OrderingKnobsReachTheGroup) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    heads = 2
    computes = 1
    ordering {
      batch = 8
      window = 4
    }
  )", testutil::env_options());
  options.cal = sim::fast_calibration();
  joshua::Cluster cluster(options);
  cluster.start();
  EXPECT_TRUE(cluster.run_until_converged());
  EXPECT_EQ(cluster.joshua_server(0).group().config().order_batch, 8u);
  EXPECT_EQ(cluster.joshua_server(0).group().config().inflight_window, 4u);
}

TEST(ClusterConfig, ShardsSectionParses) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    heads = 4
    shards {
      count = 2
      stride = 1000
      shard 0 {
        heads = {0, 1}
        queues = {"batch*"}
      }
      shard 1 {
        heads = {2, 3}
        queues = {"*"}
      }
    }
  )");
  ASSERT_TRUE(options.shards.sharded());
  EXPECT_EQ(options.shards.count, 2);
  EXPECT_EQ(options.shards.id_stride, 1000u);
  ASSERT_EQ(options.shards.heads.size(), 2u);
  EXPECT_EQ(options.shards.heads[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(options.shards.heads[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(options.shards.queues[0], (std::vector<std::string>{"batch*"}));
  EXPECT_EQ(options.shards.queues[1], (std::vector<std::string>{"*"}));
}

TEST(ClusterConfig, ShardsRoundTrip) {
  joshua::ClusterOptions original;
  original.head_count = 4;
  original.shards.count = 2;
  original.shards.id_stride = 500;
  original.shards.heads = {{0, 1}, {2, 3}};
  original.shards.queues = {{"batch*", "long"}, {"*"}};
  joshua::ClusterOptions back =
      cluster_options_from_config(cluster_options_to_config(original));
  EXPECT_EQ(back.shards.count, 2);
  EXPECT_EQ(back.shards.id_stride, 500u);
  EXPECT_EQ(back.shards.heads, original.shards.heads);
  EXPECT_EQ(back.shards.queues, original.shards.queues);
}

TEST(ClusterConfig, ShardsValidationErrors) {
  // The deployment file refuses every case of the shared table, through the
  // same validator as code-built options ("shards:" marks its errors, so a
  // case cannot pass on a syntax error instead).
  for (const layoutcases::BadLayout& c : layoutcases::bad_layouts()) {
    std::string text = cluster_options_to_config(c.options);
    try {
      joshua::ClusterOptions parsed = cluster_options_from_config(text);
      // The file has no key for plain TORQUE: that case is refused when the
      // parsed layout is built without JOSHUA.
      ASSERT_FALSE(c.options.with_joshua) << c.what << " parsed:\n" << text;
      parsed.with_joshua = false;
      joshua::Cluster cluster(parsed);
      ADD_FAILURE() << c.what << " built:\n" << text;
    } catch (const jutil::ConfigError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("shards: ", 0), 0u)
          << c.what << ": " << e.what();
    }
  }
  // File syntax: a missing per-shard section.
  EXPECT_THROW(cluster_options_from_config(R"(
    heads = 4
    shards {
      count = 2
      shard 0 { heads = {0, 1, 2, 3} }
    }
  )"),
               jutil::ConfigError);
  // File syntax: a head index that is not a number.
  EXPECT_THROW(cluster_options_from_config(R"(
    heads = 4
    shards {
      count = 2
      shard 0 { heads = {0, one} }
      shard 1 { heads = {2, 3} }
    }
  )"),
               jutil::ConfigError);
}

TEST(ClusterConfig, ShardsWithoutHeadListsSplitContiguously) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    heads = 4
    computes = 2
    shards { count = 2 }
  )");
  EXPECT_TRUE(options.shards.heads.empty());
  EXPECT_EQ(options.shards.head_sets(options.head_count),
            (std::vector<std::vector<int>>{{0, 1}, {2, 3}}));
  joshua::ClusterOptions back =
      cluster_options_from_config(cluster_options_to_config(options));
  EXPECT_EQ(back.shards.count, 2);
  EXPECT_TRUE(back.shards.heads.empty());
  EXPECT_TRUE(back.shards.queues.empty());
}

TEST(ClusterConfig, ConfiguredClusterActuallyRuns) {
  joshua::ClusterOptions options = cluster_options_from_config(R"(
    heads = 2
    computes = 1
    gcs {
      heartbeat_ms = 50
      suspect_ms = 250
      flush_ms = 500
    }
  )", testutil::env_options());
  options.cal = sim::fast_calibration();
  joshua::Cluster cluster(options);
  cluster.start();
  EXPECT_TRUE(cluster.run_until_converged());
  EXPECT_EQ(cluster.joshua_server(0).group().config().suspect_timeout,
            sim::msec(250));
}

// -- environment knobs, through an injected lookup ---------------------------

/// A lookup over a fixed map: these tests never touch the process
/// environment.
joshua::EnvLookup lookup(std::map<std::string, std::string> vars) {
  return [vars = std::move(vars)](const char* name) -> const char* {
    auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  };
}

struct KnobCase {
  const char* variable;
  const char* good;
  const char* bad;
};

/// Expect `read` to throw a ConfigError whose message names `variable`.
template <class Read>
void expect_refused(const char* variable, Read read) {
  try {
    read();
    ADD_FAILURE() << variable << ": bad value accepted";
  } catch (const jutil::ConfigError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(variable, 0), 0u) << e.what();
  }
}

TEST(EnvKnobs, EachVariableSetsItsKeyOrIsRefused) {
  const KnobCase cases[] = {
      {"JOSHUA_ORDERING", "token", "tokn"},
      {"JOSHUA_ORDER_BATCH", "64", "6x4"},
      {"JOSHUA_ORDER_WINDOW", "16", "-1"},
      {"JOSHUA_SCHED", "backfill", "bakfill"},
      {"JOSHUA_SELECT", "replica", "wormhole"},
  };
  std::map<std::string, std::string> good;
  for (const KnobCase& c : cases) {
    good[c.variable] = c.good;
    expect_refused(c.variable, [&] {
      joshua::ClusterOptions options;
      joshua::apply_env(options, lookup({{c.variable, c.bad}}));
    });
  }
  joshua::ClusterOptions options;
  joshua::apply_env(options, lookup(good));
  EXPECT_EQ(options.ordering, gcs::OrderingMode::kTokenRing);
  EXPECT_EQ(options.order_batch, 64u);
  EXPECT_EQ(options.order_window, 16u);
  EXPECT_EQ(options.sched.policy, "backfill");
  EXPECT_EQ(options.sched.selector, "replica");

  // The ordering three reach a bare GroupConfig the same way.
  gcs::GroupConfig group;
  joshua::apply_env(group, lookup(good));
  EXPECT_EQ(group.ordering, gcs::OrderingMode::kTokenRing);
  EXPECT_EQ(group.order_batch, 64u);
  EXPECT_EQ(group.inflight_window, 16u);
}

TEST(EnvKnobs, UnsetOrEmptyKeepsTheDefaults) {
  std::map<std::string, std::string> empty;
  for (const char* v : {"JOSHUA_ORDERING", "JOSHUA_ORDER_BATCH",
                        "JOSHUA_ORDER_WINDOW", "JOSHUA_SCHED", "JOSHUA_SELECT"})
    empty[v] = "";
  const joshua::ClusterOptions defaults;
  for (const auto& vars : {std::map<std::string, std::string>{}, empty}) {
    joshua::ClusterOptions options;
    joshua::apply_env(options, lookup(vars));
    EXPECT_EQ(cluster_options_to_config(options),
              cluster_options_to_config(defaults));
  }
  EXPECT_EQ(scenariotest::env_shards(lookup({})), 1);
  EXPECT_EQ(scenariotest::env_computes(lookup({{"JOSHUA_COMPUTES", ""}})), 4);
}

TEST(EnvKnobs, SweepVariablesParseStrictly) {
  using Read = std::function<int(const joshua::EnvLookup&)>;
  const struct {
    const char* variable;
    const char* good;
    int want;
    const char* bad;
    Read read;
  } cases[] = {
      {"JOSHUA_SHARDS", "2", 2, "two",
       [](const joshua::EnvLookup& env) {
         return scenariotest::env_shards(env);
       }},
      {"JOSHUA_COMPUTES", "6", 6, "6x",
       [](const joshua::EnvLookup& env) {
         return scenariotest::env_computes(env);
       }},
      // Out of [1, 3]: refused, not clamped.
      {"JOSHUA_REPLICATION", "3", 3, "4",
       [](const joshua::EnvLookup& env) {
         return static_cast<int>(scenariotest::env_replication(6, env));
       }},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.read(lookup({{c.variable, c.good}})), c.want) << c.variable;
    expect_refused(c.variable, [&] { c.read(lookup({{c.variable, c.bad}})); });
  }
}

}  // namespace
