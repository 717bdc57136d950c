// fed::Router: the client-side face of the federated control plane.
//
// Presents the same jsub/jstat/jdel/jhold/jrls surface as joshua::Client,
// but in front of several independent ordering groups. Single-job commands
// route to the one shard that owns the id (or, for submits, the shard that
// owns the queue) and are totally ordered *within that shard* exactly as in
// the monolithic design. Cross-shard operations are built from per-shard
// primitives: jstat-all is a fan-out read merged by job id; a mass delete
// is a fan-out read followed by per-shard ordered deletes. There is no
// global order across shards -- that is the scaling trade the federation
// makes, and the router is where its client-visible semantics live.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "joshua/cluster.h"
#include "telemetry/metrics.h"

namespace fed {

class Router {
 public:
  /// One joshua::Client per shard on the cluster's login node, each knowing
  /// its shard's heads, at consecutive ports claimed from the cluster. The
  /// cluster (and with it the layout) must outlive the router.
  explicit Router(joshua::Cluster& cluster);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const joshua::ShardLayout& layout() const { return *layout_; }
  joshua::Client& client(uint32_t shard) { return *clients_.at(shard); }
  /// Head failovers summed over every shard's client.
  uint64_t failovers() const;

  /// Registry handles ("fed.*"); a counter's count() is this router's own.
  struct Telemetry {
    telemetry::Counter routed;        ///< single-shard commands forwarded
    telemetry::Counter fanouts;       ///< cross-shard ops (jstat-all, jdel-all)
    telemetry::Counter fanout_reads;  ///< per-shard reads those fan-outs issued
    telemetry::Counter rejects;       ///< ids no shard can own, refused locally
    telemetry::Counter mass_deleted;  ///< jobs deleted by jdel_all
  };
  const Telemetry& stats() const { return m_; }

  /// Routed by queue (glob owner or hash); the owning shard orders it.
  void jsub(pbs::JobSpec spec,
            std::function<void(std::optional<pbs::SubmitResponse>)> done);
  /// id != 0: routed to the owner. id == 0: fan-out to every shard, merged
  /// by ascending job id; any shard failing fails the whole jstat (partial
  /// listings would masquerade as complete ones).
  void jstat(pbs::StatRequest req,
             std::function<void(std::optional<pbs::StatResponse>)> done);
  void jdel(pbs::JobId id,
            std::function<void(std::optional<pbs::SimpleResponse>)> done);
  void jhold(pbs::JobId id,
             std::function<void(std::optional<pbs::SimpleResponse>)> done);
  void jrls(pbs::JobId id,
            std::function<void(std::optional<pbs::SimpleResponse>)> done);

  /// Mass delete: fan-out jstat of live jobs, then one ordered jdel per job
  /// at its owning shard. Reports the number of jobs whose delete the shard
  /// acknowledged kOk, or nullopt when the discovery read failed anywhere.
  void jdel_all(std::function<void(std::optional<uint64_t>)> done);

 private:
  /// Routes a per-job command, synthesizing kUnknownJob locally for ids
  /// outside every shard's block (invoked before `route` ever runs).
  template <typename Response>
  bool route_by_id(pbs::JobId id, uint32_t& shard,
                   std::function<void(std::optional<Response>)>& done);

  const joshua::ShardLayout* layout_;
  std::vector<std::unique_ptr<joshua::Client>> clients_;
  uint64_t next_salt_ = 0;  ///< spreads hash-placed same-queue submits
  Telemetry m_;
};

}  // namespace fed
