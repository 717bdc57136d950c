// Reply-once for jstat: every head applies an ordered jstat, but only the
// head the client contacted has its PBS build the answer. The other heads
// send their PBS the quiet stat (pbs::Op::kStatQuiet), which costs the same
// CPU as a stat and is answered with the status alone.
#include <gtest/gtest.h>

#include <memory>

#include "joshua/joshua_harness.h"
#include "pbs/pbs_harness.h"

namespace {

using namespace joshuatest;

/// The body of an RPC frame: [u8 kind][u64 rpc id][bytes body].
sim::Payload rpc_body(const sim::Payload& frame) {
  net::Reader r(frame);
  r.u8();
  r.u64();
  return r.bytes();
}

/// Stands in front of the handler bound to a port and passes every packet
/// on. Of each frame `from` sends there it keeps the body, and how far the
/// host's CPU queue moved while the handler took the frame in: what the
/// handler charged for it.
class PortTap : public sim::IPacketHandler {
 public:
  struct Frame {
    sim::Payload body;
    sim::Duration charged;
  };

  PortTap(joshua::Cluster& cluster, sim::Endpoint at, sim::Endpoint from)
      : sim_(cluster.sim()),
        host_(cluster.net().host(at.host)),
        port_(at.port),
        from_(from),
        inner_(host_.handler(at.port)) {
    host_.unbind(port_);
    host_.bind(port_, this);
  }
  ~PortTap() override {
    host_.unbind(port_);
    host_.bind(port_, inner_);
  }

  void handle_packet(sim::Packet packet) override {
    if (packet.src != from_) return inner_->handle_packet(std::move(packet));
    sim::Payload body = rpc_body(packet.data);
    // New work starts when the CPU is free, or now if it is idle.
    sim::Time before = std::max(sim_.now(), host_.cpu_free_at());
    inner_->handle_packet(std::move(packet));
    frames.push_back({body, host_.cpu_free_at() - before});
  }
  void handle_host_crash() override { inner_->handle_host_crash(); }
  void handle_host_restart() override { inner_->handle_host_restart(); }

  std::vector<Frame> frames;

 private:
  sim::Simulation& sim_;
  sim::Host& host_;
  sim::Port port_;
  sim::Endpoint from_;
  sim::IPacketHandler* inner_;
};

/// On one head: JOSHUA's requests to its PBS, and PBS's answers.
struct HeadProbe {
  HeadProbe(joshua::Cluster& cluster, size_t head)
      : requests(cluster, cluster.pbs_endpoint(head),
                 cluster.joshua_endpoint(head)),
        answers(cluster, cluster.joshua_endpoint(head),
                cluster.pbs_endpoint(head)) {}
  PortTap requests;
  PortTap answers;
};

class ReplyOnce : public ::testing::Test {
 protected:
  static constexpr size_t kHeads = 4;

  void SetUp() override {
    joshua::ClusterOptions options = fast_options(kHeads, 1);
    options.jstat_local = false;  // every jstat goes through the order
    cluster_ = std::make_unique<joshua::Cluster>(options);
    cluster_->start();
    ASSERT_TRUE(cluster_->run_until_converged());
    client_ = &cluster_->make_jclient();
    caller_ = std::make_unique<testutil::RawCaller>(cluster_->net(),
                                          cluster_->login_host(), 24100);
    for (size_t i = 0; i < kHeads; ++i)
      probes_.push_back(std::make_unique<HeadProbe>(*cluster_, i));
  }

  /// Queue `n` more long-running jobs and let the scheduler settle.
  void queue_jobs(int n) {
    for (int i = 0; i < n; ++i)
      ASSERT_NE(jsub_sync(*cluster_, *client_, quick_job(sim::seconds(600))),
                pbs::kInvalidJob);
    cluster_->sim().run_for(sim::seconds(2));
  }

  /// One ordered jstat through head 0, and what each head's PBS saw of it.
  struct Round {
    sim::Payload answer;
    sim::Payload expected;  ///< encode(StatResponse) of head 0's table
    std::vector<pbs::Op> ops;
    std::vector<sim::Duration> charged;
    std::vector<sim::Payload> pbs_answers;
  };

  Round jstat(pbs::StatRequest req) {
    for (auto& p : probes_) {
      p->requests.frames.clear();
      p->answers.frames.clear();
    }
    Round round;
    std::optional<sim::Payload> answer;
    caller_->call(cluster_->joshua_endpoint(0), net::encode(req),
                  [&](std::optional<sim::Payload> r) {
                    answer = r;
                    round.expected = expected_answer(req);
                  });
    EXPECT_TRUE(testutil::run_until(cluster_->sim(), [&] {
      if (!answer.has_value()) return false;
      for (auto& p : probes_)
        if (p->answers.frames.empty()) return false;
      return true;
    }));
    round.answer = answer.value_or(sim::Payload{});
    for (auto& p : probes_) {
      EXPECT_EQ(p->requests.frames.size(), 1u);
      EXPECT_EQ(p->answers.frames.size(), 1u);
      if (p->requests.frames.empty() || p->answers.frames.empty()) continue;
      const PortTap::Frame& request = p->requests.frames[0];
      round.ops.push_back(static_cast<pbs::Op>(request.body[0]));
      round.charged.push_back(request.charged);
      round.pbs_answers.push_back(p->answers.frames[0].body);
    }
    return round;
  }

  /// What plain PBS answers `req` with off head 0's table.
  sim::Payload expected_answer(const pbs::StatRequest& req) const {
    pbs::StatResponse resp;
    const auto& jobs = cluster_->pbs_server(0).jobs();
    if (req.job_id == pbs::kInvalidJob) {
      for (const auto& [id, job] : jobs)
        if (req.include_complete || !job.terminal()) resp.jobs.push_back(job);
    } else if (auto it = jobs.find(req.job_id); it != jobs.end()) {
      resp.jobs.push_back(it->second);
    } else {
      resp.status = pbs::Status::kUnknownJob;
    }
    return net::encode(resp);
  }

  /// Head 0 ran a full stat, every other head a quiet one answered with
  /// `status` alone, and each head's CPU was charged the same.
  void expect_reply_once(const Round& round, pbs::Status status) {
    ASSERT_EQ(round.ops.size(), kHeads);
    EXPECT_EQ(round.answer, round.expected);
    EXPECT_EQ(round.pbs_answers[0], round.answer) << "origin answers in full";
    EXPECT_EQ(round.ops[0], pbs::Op::kStat);
    EXPECT_EQ(round.charged[0], cluster_->pbs_server(0).config().stat_proc);
    for (size_t i = 1; i < kHeads; ++i) {
      EXPECT_EQ(round.charged[i], round.charged[0]) << "head " << i;
      EXPECT_EQ(round.ops[i], pbs::Op::kStatQuiet) << "head " << i;
      EXPECT_EQ(round.pbs_answers[i],
                net::encode(pbs::SimpleResponse{status}))
          << "head " << i;
    }
  }

  std::unique_ptr<joshua::Cluster> cluster_;
  joshua::Client* client_ = nullptr;
  std::unique_ptr<testutil::RawCaller> caller_;
  /// Declared last, so the taps hand their ports back before the cluster
  /// goes.
  std::vector<std::unique_ptr<HeadProbe>> probes_;
};

TEST_F(ReplyOnce, AllJobsAnsweredOnceAndInFull) {
  queue_jobs(36);
  Round round = jstat(pbs::StatRequest{});
  expect_reply_once(round, pbs::Status::kOk);
  EXPECT_EQ(net::decode<pbs::StatResponse>(round.answer).jobs.size(), 36u);
}

TEST_F(ReplyOnce, SingleAndUnknownIdAnsweredOnce) {
  queue_jobs(24);
  Round known = jstat(pbs::StatRequest{7, true});
  expect_reply_once(known, pbs::Status::kOk);
  EXPECT_EQ(net::decode<pbs::StatResponse>(known.answer).jobs.at(0).id, 7u);
  Round unknown = jstat(pbs::StatRequest{9999, true});
  expect_reply_once(unknown, pbs::Status::kUnknownJob);
  EXPECT_TRUE(net::decode<pbs::StatResponse>(unknown.answer).jobs.empty());
}

TEST_F(ReplyOnce, QuietAnswersDoNotGrowWithTheQueue) {
  queue_jobs(8);
  Round small = jstat(pbs::StatRequest{});
  queue_jobs(32);
  Round large = jstat(pbs::StatRequest{});
  expect_reply_once(small, pbs::Status::kOk);
  expect_reply_once(large, pbs::Status::kOk);
  EXPECT_GT(large.answer.size(), small.answer.size());
  for (size_t i = 1; i < kHeads; ++i)
    EXPECT_EQ(large.pbs_answers[i].size(), small.pbs_answers[i].size())
        << "head " << i;
}

// The quiet stat is for a head's own PBS only: from a client it is
// refused before it is ordered, and no PBS sees it.
TEST_F(ReplyOnce, ClientQuietStatRefusedUnordered) {
  queue_jobs(4);
  for (auto& p : probes_) p->requests.frames.clear();
  uint64_t ordered = 0;
  for (size_t i = 0; i < kHeads; ++i)
    ordered += cluster_->joshua_server(i).core_stats().ordered.count();
  std::optional<sim::Payload> answer;
  caller_->call(cluster_->joshua_endpoint(0),
                net::encode(pbs::QuietStatRequest{{0, true}}),
                [&](std::optional<sim::Payload> r) { answer = r; });
  ASSERT_TRUE(testutil::run_until(cluster_->sim(),
                                  [&] { return answer.has_value(); }));
  EXPECT_EQ(net::decode<pbs::SimpleResponse>(*answer).status,
            pbs::Status::kUnsupported);
  cluster_->sim().run_for(sim::seconds(1));
  uint64_t after = 0;
  for (size_t i = 0; i < kHeads; ++i)
    after += cluster_->joshua_server(i).core_stats().ordered.count();
  EXPECT_EQ(after, ordered);
  for (size_t i = 0; i < kHeads; ++i)
    EXPECT_TRUE(probes_[i]->requests.frames.empty()) << "head " << i;
}

// Without an interceptor nothing asks for the quiet stat: qstat straight to
// PBS answers with the whole table.
TEST(ReplyOncePlainPbs, QstatAnswersFullStats) {
  pbstest::PbsHarness h(1);
  pbs::Client& client = h.make_client();
  for (int i = 0; i < 12; ++i)
    ASSERT_NE(h.submit(client, quick_job(sim::seconds(600))), pbs::kInvalidJob);
  std::optional<pbs::StatResponse> stat;
  client.qstat(pbs::StatRequest{}, [&](auto r) { stat = r; });
  ASSERT_TRUE(testutil::run_until(h.sim, [&] { return stat.has_value(); }));
  EXPECT_EQ(stat->status, pbs::Status::kOk);
  EXPECT_EQ(stat->jobs.size(), 12u);
}

}  // namespace
