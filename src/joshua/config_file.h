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
//   scheduler {
//     policy = fifo          # fifo | backfill
//     exclusive = true
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
// contiguously into equal shards and submits place by hash of the queue.
#pragma once

#include <string_view>

#include "joshua/cluster.h"
#include "util/config.h"

namespace joshua {

/// Parse a configuration file body into ClusterOptions. Unknown keys are
/// ignored (forward compatibility); invalid values, and a `shards` layout
/// ShardLayout::validate refuses, throw jutil::ConfigError.
ClusterOptions cluster_options_from_config(std::string_view text);

/// Render options back to configuration-file syntax (round-trippable).
std::string cluster_options_to_config(const ClusterOptions& options);

}  // namespace joshua
