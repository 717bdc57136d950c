#include "pbs/mom.h"

#include <gtest/gtest.h>

#include "pbs/pbs_harness.h"

namespace {

using pbstest::PbsHarness;
using namespace pbs;

TEST(Mom, ExecutesAndReports) {
  PbsHarness h(1);
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(300)));
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete));
  EXPECT_EQ(h.moms[0]->jobs_executed(), 1u);
  EXPECT_GE(h.moms[0]->reports_sent(), 1u);
  const auto& inst = h.moms[0]->instances().at(id);
  EXPECT_EQ(inst.state, Mom::InstanceState::kComplete);
  EXPECT_TRUE(inst.real_run_here);
  EXPECT_EQ(inst.end_time - inst.start_time, sim::msec(300));
}

TEST(Mom, PrologueRunDecisionExecutes) {
  PbsHarness h(1);
  int prologue_calls = 0;
  h.moms[0]->set_prologue([&](const Job&, sim::HostId,
                              std::function<void(PrologueDecision)> done) {
    ++prologue_calls;
    done(PrologueDecision::kRun);
  });
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete));
  EXPECT_EQ(prologue_calls, 1);
  EXPECT_EQ(h.moms[0]->jobs_executed(), 1u);
}

TEST(Mom, PrologueEmulateDoesNotExecute) {
  PbsHarness h(1);
  h.moms[0]->set_prologue([&](const Job&, sim::HostId,
                              std::function<void(PrologueDecision)> done) {
    done(PrologueDecision::kEmulate);
  });
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    return h.server->find_job(id)->state == JobState::kRunning;
  }));
  h.sim.run_for(sim::seconds(3));
  EXPECT_EQ(h.moms[0]->jobs_executed(), 0u);
  EXPECT_EQ(h.moms[0]->launches_emulated(), 1u);
  // The emulated instance completes when EmuComplete arrives (e.g. from a
  // head that saw the real run elsewhere).
  const auto& inst = h.moms[0]->instances().at(id);
  EXPECT_EQ(inst.state, Mom::InstanceState::kEmulated);
}

TEST(Mom, EmuCompleteFinishesEmulatedInstance) {
  PbsHarness h(1);
  h.moms[0]->set_prologue([&](const Job&, sim::HostId,
                              std::function<void(PrologueDecision)> done) {
    done(PrologueDecision::kEmulate);
  });
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    return h.moms[0]->instances().count(id) > 0;
  }));
  // Simulate a head notifying the emulated instance.
  pbs::ClientConfig ccfg = pbs::client_config_from(
      sim::fast_calibration(), sim::Endpoint{h.compute[0], 15002});
  pbs::Client head_stub(h.net, h.head, 23000, ccfg);
  bool acked = false;
  // Reuse the raw RPC plumbing through a one-off call.
  head_stub.qdel(0, [&](auto) {});  // prime nothing; direct emu below
  // Direct EmuComplete via the wire:
  h.sim.run_for(sim::msec(50));
  // (send as a raw RPC request through a fresh client call path)
  struct Raw : net::RpcNode {
    using net::RpcNode::RpcNode;
    void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}
  } raw(h.net, h.head, 23500, "raw");
  raw.call(sim::Endpoint{h.compute[0], 15002},
           net::encode(MomEmuCompleteRequest{id, 0}),
           [&](std::optional<sim::Payload> r) { acked = r.has_value(); });
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete, sim::seconds(30)));
  EXPECT_TRUE(acked);
}

TEST(Mom, PrologueAbortRequeuesEventually) {
  PbsHarness h(1);
  int calls = 0;
  h.moms[0]->set_prologue([&](const Job&, sim::HostId,
                              std::function<void(PrologueDecision)> done) {
    ++calls;
    done(calls == 1 ? PrologueDecision::kAbort : PrologueDecision::kRun);
  });
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  // First launch aborted -> server requeues -> second launch runs.
  EXPECT_TRUE(h.wait_state(id, JobState::kComplete, sim::seconds(120)));
  EXPECT_GE(calls, 2);
}

TEST(Mom, EpilogueRunsBeforeReports) {
  PbsHarness h(1);
  std::vector<std::string> order;
  h.moms[0]->set_epilogue([&](const Job&, int32_t,
                              std::function<void()> done) {
    order.push_back("epilogue");
    done();
  });
  h.server->on_job_complete = [&](const Job&) { order.push_back("report"); };
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(100)));
  ASSERT_TRUE(h.wait_state(id, JobState::kComplete));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "epilogue");
  EXPECT_EQ(order[1], "report");
}

TEST(Mom, SecondLaunchAttachesAndBothServersReported) {
  // Two PBS servers sharing one mom (the TORQUE 2.0p1 multi-server
  // feature): both launch the same job id; the second attaches.
  PbsHarness h(1);
  sim::HostId head2 = h.net.add_host("head2").id();
  pbs::ServerConfig cfg2 = pbs::server_config_from(sim::fast_calibration());
  cfg2.port = 15001;
  cfg2.moms = {{h.compute[0], 15002}};
  cfg2.sched_interval = sim::msec(100);
  pbs::Server server2(h.net, head2, cfg2);

  Client& c1 = h.make_client();
  pbs::ClientConfig ccfg2 = pbs::client_config_from(
      sim::fast_calibration(), sim::Endpoint{head2, 15001});
  pbs::Client c2(h.net, h.login, 23600, ccfg2);

  JobId id1 = h.submit(c1, h.quick_job(sim::msec(400)));
  pbs::JobId id2 = pbs::kInvalidJob;
  c2.qsub(h.quick_job(sim::msec(400)),
          [&](auto r) { id2 = r ? r->job_id : pbs::kInvalidJob; });
  testutil::run_until(h.sim, [&] { return id2 != pbs::kInvalidJob; });
  ASSERT_EQ(id1, id2) << "deterministic ids: both servers assigned job 1";

  ASSERT_TRUE(h.wait_state(id1, JobState::kComplete));
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    auto j = server2.find_job(id2);
    return j && j->state == JobState::kComplete;
  }));
  EXPECT_EQ(h.moms[0]->jobs_executed(), 1u) << "job ran exactly once";
  EXPECT_EQ(h.moms[0]->launches_emulated(), 1u);
}

TEST(Mom, QuirkHoldsReportForDeadHead) {
  // The paper's observed TORQUE deficiency: with the quirk on, the mom
  // retries the report until the head returns.
  auto tweak_mom = [](MomConfig& cfg) {
    cfg.quirk_hold_on_head_failure = true;
    cfg.report_retry = sim::msec(200);
  };
  PbsHarness h(1, 1, nullptr, tweak_mom);
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(300)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  h.net.crash_host(h.head);
  h.sim.run_for(sim::seconds(3));  // job finishes; reports keep retrying
  uint64_t attempts_while_down = h.moms[0]->reports_sent();
  EXPECT_GT(attempts_while_down, 2u) << "quirk keeps retrying";
  h.net.restart_host(h.head);
  EXPECT_TRUE(h.wait_state(id, JobState::kComplete, sim::seconds(30)))
      << "returned head finally gets the held report";
}

TEST(Mom, FixedBehaviourDropsReportForDeadHead) {
  auto tweak_mom = [](MomConfig& cfg) {
    cfg.quirk_hold_on_head_failure = false;
    cfg.report_attempts = 2;
    cfg.report_retry = sim::msec(200);
  };
  PbsHarness h(1, 1, nullptr, tweak_mom);
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::msec(300)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  h.net.crash_host(h.head);
  h.sim.run_for(sim::seconds(5));
  uint64_t sent = h.moms[0]->reports_sent();
  h.sim.run_for(sim::seconds(5));
  EXPECT_EQ(h.moms[0]->reports_sent(), sent)
      << "fixed mom gave up on the dead head";
}

TEST(Mom, CrashKillsRunningJobs) {
  PbsHarness h(1);
  Client& client = h.make_client();
  JobId id = h.submit(client, h.quick_job(sim::seconds(60)));
  ASSERT_TRUE(h.wait_state(id, JobState::kRunning));
  h.net.crash_host(h.compute[0]);
  h.sim.run_for(sim::seconds(1));
  EXPECT_TRUE(h.moms[0]->instances().empty())
      << "compute-node fault tolerance is out of scope (paper Section 5)";
}

}  // namespace
