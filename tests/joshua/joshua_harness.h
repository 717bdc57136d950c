// Harness for JOSHUA tests: a Cluster with the fast calibration so
// protocol-behaviour tests run quickly, plus synchronous-style command
// helpers.
#pragma once

#include "joshua/cluster.h"
#include "testutil.h"

namespace joshuatest {

inline joshua::ClusterOptions fast_options(int heads, int computes,
                                           uint64_t seed = 1) {
  joshua::ClusterOptions options = testutil::env_options();
  options.head_count = heads;
  options.compute_count = computes;
  options.cal = sim::fast_calibration();
  options.seed = seed;
  return options;
}

struct Submitted {
  bool responded = false;
  std::optional<pbs::SubmitResponse> response;
};

/// Fire a jsub and run until the reply lands (or deadline).
inline pbs::JobId jsub_sync(joshua::Cluster& cluster, joshua::Client& client,
                            pbs::JobSpec spec,
                            sim::Duration deadline = sim::seconds(60)) {
  auto state = std::make_shared<Submitted>();
  client.jsub(std::move(spec), [state](std::optional<pbs::SubmitResponse> r) {
    state->responded = true;
    state->response = r;
  });
  testutil::run_until(cluster.sim(), [state] { return state->responded; },
                      deadline);
  if (!state->response || state->response->status != pbs::Status::kOk)
    return pbs::kInvalidJob;
  return state->response->job_id;
}

/// Wait until the given job reaches `state` on every live head.
inline bool wait_state_everywhere(joshua::Cluster& cluster, pbs::JobId id,
                                  pbs::JobState state,
                                  sim::Duration deadline = sim::seconds(120)) {
  return testutil::run_until(
      cluster.sim(),
      [&] {
        for (size_t i = 0; i < cluster.head_count(); ++i) {
          if (!cluster.net().host(cluster.head_hosts()[i]).up()) continue;
          if (!cluster.joshua_server(i).in_service()) continue;
          auto job = cluster.pbs_server(i).find_job(id);
          if (!job || job->state != state) return false;
        }
        return true;
      },
      deadline);
}

inline pbs::JobSpec quick_job(sim::Duration run_time = sim::msec(500)) {
  pbs::JobSpec spec;
  spec.name = "t";
  spec.run_time = run_time;
  return spec;
}

/// All live, in-service heads hold identical LIVE job tables. Completed-job
/// history is excluded: a head that joined via the paper's replay-based
/// transfer legitimately lacks records of jobs that finished before it
/// joined (the compacted command log does not replay them) -- snapshot
/// transfer keeps full history, covered by its own tests.
inline bool heads_consistent(joshua::Cluster& cluster) {
  auto live_jobs = [](const pbs::Server& server) {
    std::map<pbs::JobId, pbs::Job> out;
    for (const auto& [id, job] : server.jobs()) {
      if (!job.terminal()) out.emplace(id, job);
    }
    return out;
  };
  std::optional<std::map<pbs::JobId, pbs::Job>> ref;
  for (size_t i = 0; i < cluster.head_count(); ++i) {
    if (!cluster.net().host(cluster.head_hosts()[i]).up()) continue;
    if (!cluster.joshua_server(i).in_service()) continue;
    auto jobs = live_jobs(cluster.pbs_server(i));
    if (!ref) {
      ref = std::move(jobs);
      continue;
    }
    if (jobs.size() != ref->size()) return false;
    for (const auto& [id, job] : jobs) {
      auto it = ref->find(id);
      if (it == ref->end()) return false;
      if (job.state != it->second.state) return false;
      if (job.cancelled != it->second.cancelled) return false;
    }
  }
  return ref.has_value();
}

}  // namespace joshuatest
