// Join/leave walkthrough: grow a JOSHUA group from 1 to 4 heads while jobs
// flow, comparing the paper's replay-based state transfer with the
// snapshot-based future-work mode, then shrink it back by voluntary leave.
//
//   $ ./examples/join_leave [replay|snapshot]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "joshua/cluster.h"
#include "joshua/config_file.h"

namespace {

void show_heads(joshua::Cluster& cluster) {
  for (size_t i = 0; i < cluster.head_count(); ++i) {
    const auto& server = cluster.joshua_server(i);
    if (!cluster.net().host(cluster.head_hosts()[i]).up()) {
      std::printf("  head%zu: DOWN\n", i);
      continue;
    }
    std::printf("  head%zu: %-14s view=%zu jobs=%zu replays=%llu\n", i,
                server.in_service() ? "in service" : "out of service",
                server.group().view().size(),
                cluster.pbs_server(i).jobs().size(),
                static_cast<unsigned long long>(
                    server.stats().replays_applied.count()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  joshua::ClusterOptions options;
  joshua::apply_env(options, std::getenv);
  options.head_count = 4;
  options.compute_count = 2;
  options.transfer = (argc > 1 && std::strcmp(argv[1], "snapshot") == 0)
                         ? joshua::TransferMode::kSnapshot
                         : joshua::TransferMode::kReplay;
  joshua::Cluster cluster(options);
  std::printf("== join/leave walkthrough (%s state transfer) ==\n",
              options.transfer == joshua::TransferMode::kReplay ? "replay"
                                                                : "snapshot");

  // Found the group with head0 alone.
  cluster.joshua_server(0).start();
  while (!cluster.joshua_server(0).in_service())
    cluster.sim().run_for(sim::msec(50));
  std::printf("[%7.2fs] head0 founded the group\n",
              cluster.sim().now().seconds());

  joshua::Client& client = cluster.make_jclient();
  auto submit = [&](const char* name) {
    pbs::JobSpec spec;
    spec.name = name;
    spec.run_time = sim::minutes(30);
    bool done = false;
    client.jsub(spec, [&](std::optional<pbs::SubmitResponse>) { done = true; });
    while (!done) cluster.sim().run_for(sim::msec(20));
  };
  submit("before-any-join");
  submit("before-any-join-2");

  // Grow to 4 heads one at a time, submitting between joins.
  for (size_t join = 1; join < 4; ++join) {
    cluster.joshua_server(join).start();
    while (cluster.joshua_server(0).group().view().size() != join + 1)
      cluster.sim().run_for(sim::msec(50));
    cluster.sim().run_for(sim::seconds(2));  // let the transfer land
    std::printf("[%7.2fs] head%zu joined (view of %zu)\n",
                cluster.sim().now().seconds(), join, join + 1);
    submit(("after-join-" + std::to_string(join)).c_str());
    show_heads(cluster);
  }

  // Shrink back: heads 3 and 2 leave voluntarily.
  cluster.joshua_server(3).shutdown();
  cluster.joshua_server(2).shutdown();
  while (cluster.joshua_server(0).group().view().size() != 2)
    cluster.sim().run_for(sim::msec(50));
  std::printf("[%7.2fs] heads 3 and 2 left; view of 2 remains\n",
              cluster.sim().now().seconds());
  submit("after-leaves");
  cluster.sim().run_for(sim::seconds(2));
  show_heads(cluster);

  // Final consistency check across the two remaining heads.
  size_t jobs0 = cluster.pbs_server(0).jobs().size();
  size_t jobs1 = cluster.pbs_server(1).jobs().size();
  std::printf("\nfinal queues: head0=%zu jobs, head1=%zu jobs -> %s\n", jobs0,
              jobs1,
              jobs0 == jobs1 && jobs0 == 6 ? "CONSISTENT" : "MISMATCH");
  return jobs0 == jobs1 && jobs0 == 6 ? 0 : 1;
}
