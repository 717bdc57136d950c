// Quickstart: bring up a 2-head / 2-compute JOSHUA cluster, submit a few
// jobs with jsub, watch them run exactly once, and query them with jstat.
//
//   $ ./examples/quickstart
//
// Everything runs inside the deterministic cluster simulator; the printed
// times are simulated seconds on the paper's calibrated testbed.
#include <cstdio>
#include <cstdlib>

#include "joshua/cluster.h"
#include "joshua/config_file.h"
#include "util/logging.h"

int main() {
  jutil::Logger::instance().set_level(jutil::LogLevel::kWarn);

  joshua::ClusterOptions options;
  joshua::apply_env(options, std::getenv);
  options.head_count = 2;
  options.compute_count = 2;
  joshua::Cluster cluster(options);

  std::printf("== JOSHUA quickstart: %d head nodes, %d compute nodes ==\n",
              options.head_count, options.compute_count);

  cluster.start();
  if (!cluster.run_until_converged()) {
    std::printf("FATAL: heads never formed a view\n");
    return 1;
  }
  std::printf("[%.3fs] head group formed: view of %zu members\n",
              cluster.sim().now().seconds(),
              cluster.joshua_server(0).group().view().size());

  joshua::Client& jsub = cluster.make_jclient();

  // Submit three jobs.
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    pbs::JobSpec spec;
    spec.name = "science-" + std::to_string(i);
    spec.user = "alice";
    spec.run_time = sim::seconds(2);
    jsub.jsub(spec, [&, i](std::optional<pbs::SubmitResponse> resp) {
      if (resp && resp->status == pbs::Status::kOk) {
        std::printf("[%.3fs] jsub: job %llu (science-%d) queued\n",
                    cluster.sim().now().seconds(),
                    static_cast<unsigned long long>(resp->job_id), i);
      } else {
        std::printf("[%.3fs] jsub: submission %d FAILED\n",
                    cluster.sim().now().seconds(), i);
      }
    });
  }

  // Let the cluster run the jobs.
  cluster.sim().run_for(sim::seconds(30));

  // Check state on both heads -- symmetric active/active means both PBS
  // servers hold identical queues.
  for (size_t head = 0; head < cluster.head_count(); ++head) {
    const pbs::Server& server = cluster.pbs_server(head);
    std::printf("head%zu: %zu jobs, %zu complete\n", head,
                server.jobs().size(),
                server.count_in_state(pbs::JobState::kComplete));
  }
  for (size_t c = 0; c < cluster.compute_count(); ++c) {
    std::printf("node%zu: executed %llu job(s), emulated %llu launch(es)\n",
                c,
                static_cast<unsigned long long>(cluster.mom(c).jobs_executed()),
                static_cast<unsigned long long>(
                    cluster.mom(c).launches_emulated()));
  }

  // jstat through the group.
  joshua::Client& jstat = cluster.make_jclient();
  jstat.jstat(pbs::StatRequest{}, [&](std::optional<pbs::StatResponse> resp) {
    if (!resp) {
      std::printf("jstat FAILED\n");
      return;
    }
    std::printf("[%.3fs] jstat: %zu jobs\n", cluster.sim().now().seconds(),
                resp->jobs.size());
    for (const pbs::Job& job : resp->jobs) {
      std::printf("  %-18s %c  exit=%d\n",
                  pbs::job_id_string(job.id, "cluster").c_str(),
                  pbs::state_letter(job.state), job.exit_code);
      ++completed;
    }
  });
  cluster.sim().run_for(sim::seconds(5));

  std::printf("done at simulated t=%.3fs\n", cluster.sim().now().seconds());
  return completed == 3 ? 0 : 1;
}
