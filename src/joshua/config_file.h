// Configuration-file front end for the cluster harness.
//
// JOSHUA v0.1 reads its deployment from libconfuse-style configuration
// files (Figure 9); this maps the same format onto ClusterOptions:
//
//   heads = 4                # head-node count
//   computes = 2             # compute-node count
//   transfer = replay        # replay | snapshot
//   auto_rejoin = false
//   quirk_mom = false
//   require_majority = false
//   seed = 1
//   scheduling {
//     policy = fifo          # fifo | backfill | priority | preempt
//     exclusive = true       # also: selector (firstfit | replica), aging_s
//   }
//   gcs {
//     heartbeat_ms = 100
//     suspect_ms = 500
//     flush_ms = 1200
//   }
//   shards {                 # federation layout (optional; default 1 shard)
//     count = 2              # Cluster wires one replication group per shard
//     stride = 4294967296    # job-id block per shard (optional)
//     shard 0 {
//       heads = {0, 1}       # indexes into the head list
//       queues = {"batch*"}  # queue globs this shard owns
//     }
//     shard 1 {
//       heads = {2, 3}
//       queues = {"*"}
//     }
//   }
//
// The `shard` sections are optional: without them the heads split
// contiguously into equal shards and submits place by hash of the queue. An
// `ordering { engine, batch, window }` section picks the total-order engine
// (allack | token) and its hot-path batching and sender window.
#pragma once

#include <functional>
#include <string_view>

#include "joshua/cluster.h"
#include "util/config.h"

namespace joshua {

/// Parse a configuration file body on top of `base` (a key the file leaves
/// out keeps base's value). Unknown keys are ignored (forward compatibility);
/// invalid values, the retired `scheduler` section and a `shards` layout
/// ShardLayout::validate refuses throw jutil::ConfigError.
ClusterOptions cluster_options_from_config(std::string_view text,
                                           ClusterOptions base = {});

/// Looks one environment variable up, nullptr when unset: the process
/// environment in a main() or test harness, a map in unit tests.
using EnvLookup = std::function<const char*(const char*)>;

/// The one reader of the JOSHUA_* knobs (library defaults are constants).
/// Each variable is one more source of a file key, with that key's checks:
///   JOSHUA_ORDERING      ordering.engine
///   JOSHUA_ORDER_BATCH   ordering.batch
///   JOSHUA_ORDER_WINDOW  ordering.window
///   JOSHUA_SCHED         scheduling.policy
///   JOSHUA_SELECT        scheduling.selector
/// Unset or empty leaves a field alone; a bad value throws jutil::ConfigError
/// naming the variable.
void apply_env(ClusterOptions& options, const EnvLookup& lookup);

/// The three ordering knobs, for edges that build a bare gcs::GroupConfig.
void apply_env(gcs::GroupConfig& group, const EnvLookup& lookup);

/// Render options back to configuration-file syntax (round-trippable).
std::string cluster_options_to_config(const ClusterOptions& options);

}  // namespace joshua
