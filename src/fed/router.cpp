#include "fed/router.h"

#include <algorithm>

namespace fed {

Router::Router(joshua::Cluster& cluster)
    : layout_(&cluster.options().shards) {
  uint32_t shards = cluster.shard_count();
  sim::Port first_port = cluster.claim_client_ports(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    joshua::ClientConfig cfg = joshua::joshua_client_config_from(
        cluster.options().cal, cluster.shard_endpoints(s));
    clients_.push_back(std::make_unique<joshua::Client>(
        cluster.net(), cluster.login_host(),
        static_cast<sim::Port>(first_port + s), std::move(cfg)));
  }
  telemetry::Registry& m = cluster.sim().telemetry().metrics();
  m_.routed = m.counter("fed.routed");
  m_.fanouts = m.counter("fed.fanouts");
  m_.fanout_reads = m.counter("fed.fanout_reads");
  m_.rejects = m.counter("fed.rejects");
  m_.mass_deleted = m.counter("fed.mass_deleted");
}

Router::~Router() = default;

uint64_t Router::failovers() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->failovers();
  return total;
}

template <typename Response>
bool Router::route_by_id(pbs::JobId id, uint32_t& shard,
                         std::function<void(std::optional<Response>)>& done) {
  std::optional<uint32_t> owner = layout_->owner_of(id);
  if (!owner.has_value()) {
    // No shard's id block contains this id, so no head anywhere could know
    // it: answer kUnknownJob locally rather than burning an ordered slot.
    m_.rejects.add(1);
    Response resp;
    resp.status = pbs::Status::kUnknownJob;
    if (done) done(resp);
    return false;
  }
  m_.routed.add(1);
  shard = *owner;
  return true;
}

void Router::jsub(pbs::JobSpec spec,
                  std::function<void(std::optional<pbs::SubmitResponse>)> done) {
  uint32_t shard = layout_->place(spec.queue, next_salt_++);
  m_.routed.add(1);
  clients_[shard]->jsub(std::move(spec), std::move(done));
}

void Router::jstat(pbs::StatRequest req,
                   std::function<void(std::optional<pbs::StatResponse>)> done) {
  if (req.job_id != pbs::kInvalidJob) {
    uint32_t shard = 0;
    if (!route_by_id<pbs::StatResponse>(req.job_id, shard, done)) return;
    clients_[shard]->jstat(std::move(req), std::move(done));
    return;
  }

  // jstat -all: fan out the read to every shard and merge. Each shard's
  // answer is a consistent totally-ordered snapshot of *its* jobs; the
  // merge is only as fresh as the slowest shard, which is the documented
  // cross-shard semantic.
  m_.fanouts.add(1);
  uint32_t shards = layout_->shard_count();
  struct Merge {
    std::vector<pbs::Job> jobs;
    pbs::Status status = pbs::Status::kOk;
    uint32_t pending = 0;
    bool failed = false;
  };
  auto merge = std::make_shared<Merge>();
  merge->pending = shards;
  for (uint32_t s = 0; s < shards; ++s) {
    m_.fanout_reads.add(1);
    clients_[s]->jstat(
        req, [this, merge, done](std::optional<pbs::StatResponse> resp) {
          if (!resp.has_value()) {
            merge->failed = true;
          } else {
            if (resp->status != pbs::Status::kOk &&
                merge->status == pbs::Status::kOk)
              merge->status = resp->status;
            merge->jobs.insert(merge->jobs.end(), resp->jobs.begin(),
                               resp->jobs.end());
          }
          if (--merge->pending > 0) return;
          if (merge->failed) {
            if (done) done(std::nullopt);
            return;
          }
          std::sort(merge->jobs.begin(), merge->jobs.end(),
                    [](const pbs::Job& a, const pbs::Job& b) {
                      return a.id < b.id;
                    });
          pbs::StatResponse out;
          out.status = merge->status;
          out.jobs = std::move(merge->jobs);
          if (done) done(std::move(out));
        });
  }
}

void Router::jdel(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  uint32_t shard = 0;
  if (!route_by_id<pbs::SimpleResponse>(id, shard, done)) return;
  clients_[shard]->jdel(id, std::move(done));
}

void Router::jhold(pbs::JobId id,
                   std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  uint32_t shard = 0;
  if (!route_by_id<pbs::SimpleResponse>(id, shard, done)) return;
  clients_[shard]->jhold(id, std::move(done));
}

void Router::jrls(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  uint32_t shard = 0;
  if (!route_by_id<pbs::SimpleResponse>(id, shard, done)) return;
  clients_[shard]->jrls(id, std::move(done));
}

void Router::jdel_all(std::function<void(std::optional<uint64_t>)> done) {
  // Phase 1: discover live jobs everywhere (incomplete only -- deleting a
  // finished job is a no-op the shard would refuse anyway).
  pbs::StatRequest req;
  req.job_id = pbs::kInvalidJob;
  req.include_complete = false;
  jstat(req, [this, done](std::optional<pbs::StatResponse> resp) {
    if (!resp.has_value()) {
      if (done) done(std::nullopt);
      return;
    }
    // Phase 2: one ordered delete per job at its owning shard. Jobs that
    // finish or vanish between the read and the delete simply answer
    // non-kOk and are not counted -- the count reports deletes the shard
    // actually ordered and applied.
    if (resp->jobs.empty()) {
      if (done) done(0);
      return;
    }
    struct Count {
      uint64_t deleted = 0;
      size_t pending = 0;
    };
    auto count = std::make_shared<Count>();
    count->pending = resp->jobs.size();
    for (const pbs::Job& job : resp->jobs) {
      std::optional<uint32_t> owner = layout_->owner_of(job.id);
      if (!owner.has_value()) {  // cannot happen for a shard-reported id
        if (--count->pending == 0 && done) done(count->deleted);
        continue;
      }
      m_.routed.add(1);
      clients_[*owner]->jdel(
          job.id, [this, count, done](std::optional<pbs::SimpleResponse> r) {
            if (r.has_value() && r->status == pbs::Status::kOk) {
              ++count->deleted;
              m_.mass_deleted.add(1);
            }
            if (--count->pending == 0 && done) done(count->deleted);
          });
    }
  });
}

}  // namespace fed
