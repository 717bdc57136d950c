// The generic replication adapter, exercised with the PVFS metadata
// service: the paper's "applicable to any deterministic HPC system
// service" claim, tested.
#include "rsm/replicated_service.h"

#include <gtest/gtest.h>

#include "gcs/messages.h"
#include "joshua/config_file.h"
#include "pvfs/metadata.h"
#include "sim/calibration.h"
#include "testutil.h"

namespace {

struct RsmHarness {
  explicit RsmHarness(int n, uint64_t seed = 1, bool read_local = false)
      : sim(seed), net(sim, sim::fast_calibration().network) {
    for (int i = 0; i < n; ++i)
      hosts.push_back(net.add_host("md" + std::to_string(i)).id());
    login = net.add_host("login").id();
    for (int i = 0; i < n; ++i) {
      services.push_back(std::make_unique<pvfs::MetadataServer>());
      rsm::ReplicaConfig cfg;
      cfg.client_port = 19000;
      cfg.group = gcs::group_config_from(sim::fast_calibration());
      joshua::apply_env(cfg.group, std::getenv);
      cfg.group.port = 7100;
      cfg.group.peers = hosts;
      cfg.group.heartbeat_interval = sim::msec(50);
      cfg.group.suspect_timeout = sim::msec(250);
      cfg.group.flush_timeout = sim::msec(500);
      cfg.group.join_retry = sim::msec(100);
      cfg.read_local = read_local;
      replicas.push_back(std::make_unique<rsm::ReplicaNode>(
          net, hosts[static_cast<size_t>(i)], cfg,
          services.back().get()));
    }
    rsm::ReplicaClient::Config ccfg;
    for (sim::HostId h : hosts) ccfg.replicas.push_back({h, 19000});
    client = std::make_unique<rsm::ReplicaClient>(net, login, 20000, ccfg);
  }

  void start_all() {
    for (auto& r : replicas) r->start();
  }

  bool converged(size_t n) {
    for (auto& r : replicas) {
      if (!net.host(r->group().id()).up()) continue;
      if (r->group().state() == gcs::GroupMember::State::kDown) continue;
      if (!r->in_service() || r->group().view().size() != n) return false;
    }
    return true;
  }

  bool run_until_converged(size_t n) {
    return testutil::run_until(sim, [&] { return converged(n); },
                               sim::seconds(30));
  }

  pvfs::MdResponse call(pvfs::MdRequest req,
                        sim::Duration deadline = sim::seconds(30)) {
    std::optional<pvfs::MdResponse> out;
    bool done = false;
    client->request(net::encode(req), [&](std::optional<sim::Payload> r) {
      done = true;
      if (r) out = net::decode<pvfs::MdResponse>(*r);
    });
    testutil::run_until(sim, [&] { return done; }, deadline);
    return out.value_or(pvfs::MdResponse{pvfs::MdStatus::kInvalid,
                                         pvfs::kInvalidHandle, {}, {}});
  }

  sim::Simulation sim;
  sim::Network net;
  std::vector<sim::HostId> hosts;
  sim::HostId login;
  std::vector<std::unique_ptr<pvfs::MetadataServer>> services;
  std::vector<std::unique_ptr<rsm::ReplicaNode>> replicas;
  std::unique_ptr<rsm::ReplicaClient> client;
};

pvfs::MdRequest mkdir_req(const std::string& name,
                          pvfs::Handle dir = pvfs::kRootHandle) {
  pvfs::MdRequest req;
  req.op = pvfs::MdOp::kMkdir;
  req.dir = dir;
  req.name = name;
  req.mode = 0755;
  return req;
}

TEST(ReplicatedMetadata, WritesReplicateToAllReplicas) {
  RsmHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(3));
  pvfs::MdResponse resp = h.call(mkdir_req("scratch"));
  ASSERT_EQ(resp.status, pvfs::MdStatus::kOk);
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    for (auto& s : h.services)
      if (s->resolve("/scratch") == pvfs::kInvalidHandle) return false;
    return true;
  }));
  // Identical handles at every replica (determinism).
  pvfs::Handle ref = h.services[0]->resolve("/scratch");
  for (auto& s : h.services) EXPECT_EQ(s->resolve("/scratch"), ref);
}

TEST(ReplicatedMetadata, SurvivesReplicaFailure) {
  RsmHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(3));
  ASSERT_EQ(h.call(mkdir_req("before")).status, pvfs::MdStatus::kOk);

  h.net.crash_host(h.hosts[0]);
  ASSERT_TRUE(h.run_until_converged(2));
  pvfs::MdResponse after = h.call(mkdir_req("after"));
  EXPECT_EQ(after.status, pvfs::MdStatus::kOk);
  EXPECT_NE(h.services[1]->resolve("/before"), pvfs::kInvalidHandle)
      << "no loss of namespace state";
  EXPECT_NE(h.services[1]->resolve("/after"), pvfs::kInvalidHandle);
  EXPECT_GE(h.client->failovers(), 1u);
}

TEST(ReplicatedMetadata, JoinerInheritsNamespace) {
  RsmHarness h(2);
  h.replicas[0]->start();
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return h.replicas[0]->in_service(); }, sim::seconds(30)));
  ASSERT_EQ(h.call(mkdir_req("home")).status, pvfs::MdStatus::kOk);
  pvfs::MdRequest file;
  file.op = pvfs::MdOp::kCreate;
  file.dir = h.services[0]->resolve("/home");
  file.name = "data";
  ASSERT_EQ(h.call(file).status, pvfs::MdStatus::kOk);

  h.replicas[1]->start();
  ASSERT_TRUE(h.run_until_converged(2));
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    return h.services[1]->resolve("/home/data") != pvfs::kInvalidHandle;
  }))
      << "snapshot transfer rebuilt the namespace at the joiner";
  EXPECT_EQ(h.services[1]->snapshot(), h.services[0]->snapshot())
      << "byte-identical state";
}

TEST(ReplicatedMetadata, OrderedReadsSeePrecedingWrites) {
  RsmHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(2));
  ASSERT_EQ(h.call(mkdir_req("d")).status, pvfs::MdStatus::kOk);
  pvfs::MdRequest look;
  look.op = pvfs::MdOp::kLookup;
  look.dir = pvfs::kRootHandle;
  look.name = "d";
  pvfs::MdResponse resp = h.call(look);
  EXPECT_EQ(resp.status, pvfs::MdStatus::kOk)
      << "an ordered read after an ordered write always sees it";
}

TEST(ReplicatedMetadata, ReadLocalModeServesWithoutOrdering) {
  RsmHarness h(3, 1, /*read_local=*/true);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(3));
  ASSERT_EQ(h.call(mkdir_req("d")).status, pvfs::MdStatus::kOk);
  uint64_t applied_before = 0;
  for (auto& r : h.replicas) applied_before += r->stats().applied.count();
  pvfs::MdRequest look;
  look.op = pvfs::MdOp::kLookup;
  look.dir = pvfs::kRootHandle;
  look.name = "d";
  ASSERT_EQ(h.call(look).status, pvfs::MdStatus::kOk);
  uint64_t applied_after = 0, local_reads = 0;
  for (auto& r : h.replicas) {
    applied_after += r->stats().applied.count();
    local_reads += r->stats().local_reads.count();
  }
  EXPECT_EQ(applied_after, applied_before)
      << "the read bypassed the total order";
  EXPECT_EQ(local_reads, 1u);
}

TEST(ReplicatedMetadata, ConcurrentClientsStayConsistent) {
  RsmHarness h(3, 9);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(3));
  // Two clients race creates of the same name; exactly one wins, and all
  // replicas agree which.
  rsm::ReplicaClient::Config ccfg;
  for (sim::HostId host : h.hosts) ccfg.replicas.push_back({host, 19000});
  rsm::ReplicaClient client2(h.net, h.login, 20001, ccfg);

  std::optional<pvfs::MdStatus> s1, s2;
  h.client->request(net::encode(mkdir_req("race")),
                    [&](std::optional<sim::Payload> r) {
                      if (r) s1 = net::decode<pvfs::MdResponse>(*r).status;
                    });
  client2.request(net::encode(mkdir_req("race")),
                  [&](std::optional<sim::Payload> r) {
                    if (r) s2 = net::decode<pvfs::MdResponse>(*r).status;
                  });
  testutil::run_until(h.sim,
                      [&] { return s1.has_value() && s2.has_value(); });
  ASSERT_TRUE(s1 && s2);
  EXPECT_TRUE((*s1 == pvfs::MdStatus::kOk) ^ (*s2 == pvfs::MdStatus::kOk))
      << "exactly one create wins the total order";
  // The replying replica can apply a hop before its peers hear the ordering
  // decision; wait for every replica to catch up, then demand agreement.
  testutil::run_until(h.sim, [&] {
    for (auto& s : h.services)
      if (s->snapshot() != h.services[0]->snapshot()) return false;
    return true;
  });
  for (auto& s : h.services)
    EXPECT_EQ(s->snapshot(), h.services[0]->snapshot());
}

TEST(ReplicatedMetadata, ExcludedReplicaFailsPendingRequestsAtOnce) {
  RsmHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(3));
  // A client that tries md2 first and would wait 20 s before failing over.
  rsm::ReplicaClient::Config ccfg;
  ccfg.replicas = {{h.hosts[2], 19000}, {h.hosts[0], 19000},
                   {h.hosts[1], 19000}};
  ccfg.timeout = sim::seconds(20);
  rsm::ReplicaClient client(h.net, h.login, 20002, ccfg);
  std::optional<pvfs::MdResponse> answer;
  sim::Time answered_at{0};
  client.request(net::encode(mkdir_req("d")),
                 [&](std::optional<sim::Payload> r) {
                   if (r) answer = net::decode<pvfs::MdResponse>(*r);
                   answered_at = h.sim.now();
                 });
  rsm::ReplicaNode& md2 = *h.replicas[2];
  auto step = sim::usec(50);
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return md2.stats().requests.count() == 1; },
      sim::seconds(1), step));
  // Cut md2 off before it multicasts, so its request stays pending there.
  h.net.set_partition(h.hosts[2], 1);
  uint64_t sent = md2.group().stats().data_sent.count();
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return md2.group().stats().data_sent.count() > sent; },
      sim::seconds(1), step));
  // md2 learns that the others installed a view without it. The gcs sends a
  // view commit only to its members, so the test delivers this one itself
  // (loopback, which the partition does not drop).
  gcs::VcCommitWire commit;
  commit.header.from = h.hosts[0];
  commit.new_view.id = {md2.group().view().id.epoch + 1, h.hosts[0]};
  commit.new_view.members = {h.hosts[0], h.hosts[1]};
  commit.old_members = md2.group().view().members;
  h.net.send({{h.hosts[2], 7100}, {h.hosts[2], 7100}, net::encode(commit)});
  h.net.clear_partitions();
  sim::Time excluded_at = h.sim.now();

  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return answered_at.us != 0; }, sim::seconds(60)));
  EXPECT_FALSE(md2.in_service());
  EXPECT_LT((answered_at - excluded_at).seconds(), 5.0)
      << "the excluded replica must answer 'unavailable' at once, not leave "
         "the client to its timeout";
  EXPECT_EQ(client.failovers(), 1u);
  // md2's own multicast may still reach the survivors through the flush, so
  // the retry can find the directory already made (at-least-once).
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->status == pvfs::MdStatus::kOk ||
              answer->status == pvfs::MdStatus::kExists);
  EXPECT_NE(h.services[0]->resolve("/d"), pvfs::kInvalidHandle);
}

}  // namespace
