#include "pbs/client.h"

#include <gtest/gtest.h>

#include "pbs/pbs_harness.h"

namespace {

using pbstest::PbsHarness;
using namespace pbs;

TEST(PbsClient, TimesOutAgainstDeadServer) {
  PbsHarness h;
  Client& client = h.make_client();
  h.net.crash_host(h.head);
  bool called = false;
  std::optional<SubmitResponse> got{SubmitResponse{}};
  client.qsub(h.quick_job(), [&](std::optional<SubmitResponse> r) {
    called = true;
    got = r;
  });
  testutil::run_until(h.sim, [&] { return called; }, sim::seconds(30));
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

TEST(PbsClient, CommandCostsShowUpInLatency) {
  PbsHarness h;
  Client& client = h.make_client();
  sim::Time start = h.sim.now();
  bool done = false;
  client.qsub(h.quick_job(), [&](auto) { done = true; });
  testutil::run_until(h.sim, [&] { return done; }, sim::seconds(10),
                      sim::usec(50));
  sim::Duration latency = h.sim.now() - start;
  const auto& cal = sim::fast_calibration();
  EXPECT_GE(latency.us, (cal.cmd_startup + cal.pbs_submit_proc +
                         cal.cmd_teardown).us);
}

TEST(PbsClient, SetServerRetargets) {
  PbsHarness h;
  sim::HostId head2 = h.net.add_host("head2").id();
  ServerConfig cfg2 = pbstest::server_config();
  cfg2.port = 15001;
  cfg2.moms = {{h.compute[0], 15002}};
  Server server2(h.net, head2, cfg2);

  Client& client = h.make_client();
  client.set_server({head2, 15001});
  JobId id = h.submit(client, h.quick_job(sim::seconds(60)));
  EXPECT_NE(id, kInvalidJob);
  EXPECT_EQ(server2.jobs().size(), 1u);
  EXPECT_TRUE(h.server->jobs().empty());
}

TEST(PbsClient, SequentialSubmissionsSerializeLatency) {
  // Throughput = serialized latency for a single-client submit loop; this
  // is the microscopic mechanism behind Figure 11.
  PbsHarness h;
  Client& client = h.make_client();
  sim::Time start = h.sim.now();
  int done = 0;
  std::function<void()> next = [&] {
    client.qsub(h.quick_job(sim::seconds(600)), [&](auto) {
      ++done;
      if (done < 5) next();
    });
  };
  next();
  testutil::run_until(h.sim, [&] { return done == 5; }, sim::seconds(60),
                      sim::usec(100));
  sim::Duration total = h.sim.now() - start;

  // One-shot latency for comparison.
  PbsHarness h2;
  Client& client2 = h2.make_client();
  sim::Time s2 = h2.sim.now();
  bool one = false;
  client2.qsub(h2.quick_job(sim::seconds(600)), [&](auto) { one = true; });
  testutil::run_until(h2.sim, [&] { return one; }, sim::seconds(60),
                      sim::usec(100));
  sim::Duration single = h2.sim.now() - s2;

  EXPECT_GE(total.us, single.us * 4) << "5 sequential submits ~ 5x latency";
  EXPECT_LE(total.us, single.us * 6);
}

}  // namespace
