// Ordering-engine coverage: the all-ack and token-ring engines must be
// observationally equivalent (same virtual-synchrony guarantees under the
// same seeded traffic and view changes), and the token ring must survive
// its own failure modes -- a lost token and a crashed token holder.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "gcs/engine_token.h"
#include "gcs/gcs_harness.h"
#include "gcs/ordering.h"

namespace {

using gcstest::GcsHarness;

std::function<void(gcs::GroupConfig&)> use_engine(gcs::OrderingMode mode) {
  return [mode](gcs::GroupConfig& cfg) { cfg.ordering = mode; };
}

/// Index of the member currently holding the token, or -1 (in flight).
int holder_index(const GcsHarness& h) {
  for (size_t i = 0; i < h.members.size(); ++i) {
    if (!h.net.host(h.hosts[i]).up()) continue;
    const gcs::OrderingEngine& e = h.members[i]->engine();
    if (e.mode() != gcs::OrderingMode::kTokenRing) continue;
    if (static_cast<const gcs::TokenRingEngine&>(e).holding_token())
      return static_cast<int>(i);
  }
  return -1;
}

uint64_t max_token_id(const GcsHarness& h) {
  uint64_t id = 0;
  for (size_t i = 0; i < h.members.size(); ++i) {
    if (!h.net.host(h.hosts[i]).up()) continue;
    const gcs::OrderingEngine& e = h.members[i]->engine();
    if (e.mode() != gcs::OrderingMode::kTokenRing) continue;
    id = std::max(id,
                  static_cast<const gcs::TokenRingEngine&>(e).token_id_seen());
  }
  return id;
}

/// One deterministic campaign: n members, six rounds of traffic from every
/// live member with 10% loss, the last member crashing after round 3.
/// Returns the per-member delivery logs after the ring quiesces.
struct CampaignResult {
  std::vector<std::vector<gcs::Delivered>> logs;
  std::set<std::pair<gcs::MemberId, uint64_t>> survivor_sent;
  bool ok = false;
};

CampaignResult run_campaign(gcs::OrderingMode mode, int n, uint64_t seed) {
  CampaignResult out;
  GcsHarness h(n, seed, use_engine(mode));
  h.join_all();
  if (!h.run_until_converged(static_cast<size_t>(n))) return out;

  h.net.mutable_config().loss_rate = 0.10;
  int sent = 0;
  std::vector<uint64_t> sends(static_cast<size_t>(n), 0);  // k-th send = seq k
  for (int round = 0; round < 6; ++round) {
    for (int m = 0; m < n; ++m) {
      size_t idx = static_cast<size_t>(m);
      if (!h.net.host(h.hosts[idx]).up()) continue;
      h.members[idx]->multicast(h.payload_of(sent++));
      if (m + 1 < n)  // every survivor's full traffic must come through
        out.survivor_sent.emplace(h.members[idx]->id(), ++sends[idx]);
      h.sim.run_for(sim::msec(static_cast<int64_t>((seed + m) % 7)));
    }
    if (round == 3) {
      h.net.mutable_config().loss_rate = 0.0;
      h.net.crash_host(h.hosts.back());
    }
  }
  h.net.mutable_config().loss_rate = 0.0;

  if (!h.run_until_converged(static_cast<size_t>(n - 1))) return out;
  // Quiesce: every survivor has delivered every survivor-sent message.
  out.ok = testutil::run_until(h.sim, [&] {
    for (int m = 0; m + 1 < n; ++m) {
      std::set<std::pair<gcs::MemberId, uint64_t>> got;
      for (const gcs::Delivered& d : h.logs[static_cast<size_t>(m)].delivered)
        got.emplace(d.sender, d.seq);
      for (const auto& id : out.survivor_sent)
        if (got.find(id) == got.end()) return false;
    }
    return true;
  });
  for (const auto& log : h.logs) out.logs.push_back(log.delivered);
  return out;
}

class EngineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalence, SameGuaranteesUnderSeededFaults) {
  const uint64_t seed = GetParam();
  const int n = 4;
  CampaignResult allack = run_campaign(gcs::OrderingMode::kAllAck, n, seed);
  CampaignResult token = run_campaign(gcs::OrderingMode::kTokenRing, n, seed);
  ASSERT_TRUE(allack.ok) << "all-ack campaign did not quiesce";
  ASSERT_TRUE(token.ok) << "token campaign did not quiesce";

  for (const CampaignResult* r : {&allack, &token}) {
    // Identical delivery order at every member: pairwise prefix agreement...
    for (size_t a = 0; a + 1 < r->logs.size() - 1; ++a)
      for (size_t b = a + 1; b + 1 < r->logs.size(); ++b)
        EXPECT_TRUE(GcsHarness::prefix_consistent(r->logs[a], r->logs[b]))
            << "members " << a << " and " << b << " disagree on the order";
    // ...and per-sender integrity (no gaps, no duplicates).
    for (const auto& log : r->logs)
      EXPECT_TRUE(GcsHarness::fifo_clean(log));
  }

  // Cross-engine: both engines deliver the same survivor traffic (messages
  // in flight from the crashed member may legitimately differ).
  auto survivor_set = [&](const CampaignResult& r, size_t member) {
    std::set<std::pair<gcs::MemberId, uint64_t>> got;
    for (const gcs::Delivered& d : r.logs[member])
      if (r.survivor_sent.count({d.sender, d.seq}) != 0)
        got.emplace(d.sender, d.seq);
    return got;
  };
  for (size_t m = 0; m + 1 < static_cast<size_t>(n); ++m)
    EXPECT_EQ(survivor_set(allack, m), survivor_set(token, m))
        << "engines disagree on the delivered survivor traffic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Values(7u, 21u, 42u));

// ---------------------------------------------------------------------------
// Direct-drive rig: one TokenRingEngine + OrderingBuffer per member with
// hand routing, for byte-precise loss windows the stochastic campaigns are
// very unlikely to hit. The data path is lossless here; only engine control
// traffic is dropped.
// ---------------------------------------------------------------------------

// Engine wire sub-types (first payload byte; mirrors engine_token.cpp).
constexpr uint8_t kSubStamps = 2;
constexpr uint8_t kSubStampNack = 3;

struct RingNode {
  RingNode(gcs::MemberId id_, const gcs::EngineTuning& t) : id(id_), eng(t) {
    buf.attach_engine(&eng);
  }
  gcs::MemberId id;
  gcs::OrderingBuffer buf;
  gcs::TokenRingEngine eng;
  std::vector<gcs::DataMsg> delivered;
};

class TokenRig {
 public:
  explicit TokenRig(int n, uint32_t max_batch = 0) {
    tuning.max_batch = max_batch;
    view.id = {1, 1};
    for (int i = 1; i <= n; ++i)
      view.members.push_back(static_cast<gcs::MemberId>(i));
    for (gcs::MemberId m : view.members)
      nodes.push_back(std::make_unique<RingNode>(m, tuning));
    for (auto& node : nodes) {
      node->buf.reset(view, node->id);
      route(node->id, node->eng.reset(view, node->id, now));
    }
  }

  RingNode& node(gcs::MemberId id) { return *nodes[id - 1]; }

  /// Route an EngineOut, recursively delivering to peers and draining.
  /// Payloads sent by `drop_from` vanish (forward timers are kept), except
  /// the first `pass_first` of them -- the knob that loses a token run
  /// *mid-batch*, after part of its stamp announcements landed.
  void route(gcs::MemberId from, gcs::EngineOut out) {
    if (out.forward_timer.us > 0) timers.insert(from);
    for (const sim::Payload& b : out.broadcasts) {
      sent.emplace_back(b[0], true);
      if (allow(from))
        for (auto& n : nodes)
          if (n->id != from) deliver(*n, from, b);
    }
    if (out.unicast) {
      sent.emplace_back(out.unicast->second[0], false);
      if (allow(from))
        deliver(node(out.unicast->first), from, out.unicast->second);
    }
  }

  bool allow(gcs::MemberId from) {
    if (from != drop_from) return true;
    if (pass_first > 0) {
      --pass_first;
      return true;
    }
    return false;
  }

  void deliver(RingNode& dst, gcs::MemberId from, const sim::Payload& p) {
    route(dst.id, dst.eng.on_control(from, p, now));
    drain(dst);
  }

  void drain(RingNode& n) {
    for (gcs::DataMsg& m : n.buf.drain()) n.delivered.push_back(std::move(m));
  }

  /// One heartbeat tick at every member, in member-id order.
  void tick() {
    now += 50'000;
    for (auto& n : nodes) route(n->id, n->eng.on_tick(now));
  }

  void multicast(gcs::MemberId sender, uint64_t seq) {
    now += 1'000;
    gcs::DataMsg m;
    m.id = {sender, seq};
    m.lamport = ++lamport;
    for (auto& n : nodes) n->buf.insert(m);
    route(sender, node(sender).eng.on_local_send(m, now));
    for (auto& n : nodes)
      if (n->id != sender) route(n->id, n->eng.on_insert(m, now));
    for (auto& n : nodes) drain(*n);
  }

  size_t count_sent(uint8_t sub, bool broadcast) const {
    size_t c = 0;
    for (const auto& [s, b] : sent)
      if (s == sub && b == broadcast) ++c;
    return c;
  }

  gcs::EngineTuning tuning;
  gcs::View view;
  std::vector<std::unique_ptr<RingNode>> nodes;
  std::set<gcs::MemberId> timers;  ///< pending idle-forward timers (unfired)
  gcs::MemberId drop_from = sim::kInvalidHost;
  int pass_first = 0;  ///< payloads from drop_from let through before dropping
  std::vector<std::pair<uint8_t, bool>> sent;  ///< (sub-type, was-broadcast)
  int64_t now = 0;
  uint64_t lamport = 0;
};

// REVIEW.md regression: the holder stamps and locally delivers its own
// message, then the stamp announcement is lost to every peer AND the token
// hand-off is lost, so no member sees a gap and nothing is NACKable. The
// regeneration round must still learn that global 1 is taken (from the old
// holder's reply) instead of minting with a stale next_global and
// reassigning a delivered global -- which would permanently diverge the
// total order and orphan the holder's message.
TEST(TokenRing, RegenRoundNeverReusesDeliveredGlobals) {
  TokenRig rig(3);

  // Member 2 multicasts; member 1 (initial holder, idling) hands the token
  // over; member 2 stamps global 1 and delivers its own message locally,
  // but both of its packets -- the stamp announcement and the onward token
  // -- vanish.
  rig.drop_from = 2;
  rig.multicast(2, 1);
  rig.drop_from = sim::kInvalidHost;
  ASSERT_EQ(rig.node(2).eng.delivered_global(), 1u)
      << "precondition: the holder delivered its own stamped message";
  ASSERT_TRUE(rig.node(1).delivered.empty());
  ASSERT_TRUE(rig.node(3).delivered.empty());

  // Traffic queued at member 1 while the ring is dead.
  rig.multicast(1, 1);
  ASSERT_TRUE(rig.node(1).delivered.empty());

  // Ring silence past the loss timeout: member 1 (lowest) regenerates. The
  // recovery round must seed next_global past member 2's unannounced stamp.
  rig.now += 2'000'000;
  rig.tick();
  EXPECT_FALSE(rig.node(1).eng.regen_pending());
  EXPECT_EQ(rig.node(1).eng.token_id_seen(), 2u)
      << "recovery must mint a higher-id token";
  EXPECT_EQ(rig.node(1).eng.next_global(), 3u)
      << "the regenerated token reused a global assigned by the old holder";
  // No NACK yet: a fresh gap gets one full tick of grace.
  EXPECT_EQ(rig.count_sent(kSubStampNack, true), 0u);

  // The gap persists a tick; members 3 then 1 NACK (rate-limited), and the
  // old holder re-announces its orphaned stamp to each requester.
  rig.tick();
  rig.tick();
  EXPECT_EQ(rig.count_sent(kSubStampNack, true), 2u)
      << "gap NACKs must be rate-limited to one per stalled member";
  // Member 2 answers member 3's NACK; members 2 and 3 (which has the stamp
  // by then) both answer member 1's.
  EXPECT_EQ(rig.count_sent(kSubStamps, false), 3u)
      << "re-announces must be unicast to the requester";
  EXPECT_EQ(rig.count_sent(kSubStamps, true), 2u)
      << "only the two original batch announcements may be broadcast";

  // Agreement: every member delivered both messages in the same order, with
  // the old holder's pre-crash-window delivery as the common prefix.
  for (gcs::MemberId m : rig.view.members) {
    const auto& log = rig.node(m).delivered;
    ASSERT_EQ(log.size(), 2u) << "member " << m;
    EXPECT_EQ(log[0].id, (gcs::MsgId{2, 1})) << "member " << m;
    EXPECT_EQ(log[1].id, (gcs::MsgId{1, 1})) << "member " << m;
  }
}

// Token loss *mid-batch*: a holder with a four-message backlog and
// max_batch = 2 emits two stamp announcements in one hold; the first lands
// everywhere, then the second AND the token hand-off vanish. Recovery (a
// regeneration round seeded by the old holder's next_global, then the
// stamp-NACK path for the orphaned second chunk) must neither re-stamp a
// global from the lost chunk nor skip one.
TEST(TokenRing, TokenLossMidBatchNeverRestampsOrSkips) {
  TokenRig rig(3, /*max_batch=*/2);

  // Kill the initial token: member 1 (idle holder) forwards on the first
  // insert and the hand-off vanishes. Member 2's messages then pile up
  // unstamped while the ring is dead.
  rig.drop_from = 1;
  rig.multicast(2, 1);
  rig.drop_from = sim::kInvalidHost;
  rig.multicast(2, 2);
  rig.multicast(2, 3);
  rig.multicast(2, 4);
  for (gcs::MemberId m : rig.view.members)
    ASSERT_TRUE(rig.node(m).delivered.empty());

  // Silence past the loss timeout: member 1 regenerates (token id 2) and,
  // with nothing of its own to stamp, idles with the replacement token.
  rig.now += 2'000'000;
  rig.tick();
  ASSERT_FALSE(rig.node(1).eng.regen_pending());
  ASSERT_TRUE(rig.node(1).eng.holding_token());
  ASSERT_TRUE(rig.timers.count(1));

  // Hand the token to member 2, which stamps its backlog of four as two
  // announcements of two. The first chunk is delivered, then the ring goes
  // dark: the second chunk and the onward token both vanish.
  rig.drop_from = 2;
  rig.pass_first = 1;
  rig.route(1, rig.node(1).eng.on_forward_timer(rig.now));
  rig.drop_from = sim::kInvalidHost;
  rig.pass_first = 0;

  EXPECT_EQ(rig.count_sent(kSubStamps, true), 2u)
      << "a four-message hold at max_batch 2 must announce in two chunks";
  // The holder delivered its whole batch; the peers only the first chunk.
  ASSERT_EQ(rig.node(2).eng.delivered_global(), 4u);
  ASSERT_EQ(rig.node(2).eng.next_global(), 5u);
  for (gcs::MemberId m : {gcs::MemberId{1}, gcs::MemberId{3}}) {
    ASSERT_EQ(rig.node(m).delivered.size(), 2u) << "member " << m;
    ASSERT_EQ(rig.node(m).eng.delivered_global(), 2u) << "member " << m;
  }

  // Second regeneration round. The old holder's reply must seed next_global
  // past its orphaned chunk, so the new token can never re-stamp globals 3-4
  // under a different assignment.
  rig.now += 2'000'000;
  rig.tick();
  EXPECT_FALSE(rig.node(1).eng.regen_pending());
  EXPECT_EQ(rig.node(1).eng.next_global(), 5u)
      << "regeneration re-used a global stamped in the lost chunk";

  // Circulate the replacement token one lap (idle holders defer; fire their
  // forward timers by hand) so every member learns next_global = 5 and sees
  // it is stalled behind the global-3 gap.
  ASSERT_TRUE(rig.node(1).eng.holding_token());
  rig.route(1, rig.node(1).eng.on_forward_timer(rig.now));
  rig.route(2, rig.node(2).eng.on_forward_timer(rig.now));
  EXPECT_EQ(rig.node(3).eng.next_global(), 5u);

  // The peers stall behind the gap; the NACK path (one tick of grace, then
  // rate-limited NACKs) recovers the orphaned chunk from the old holder's
  // stamp log.
  rig.tick();
  rig.tick();
  rig.tick();

  // No skip, no re-stamp: every member delivered exactly seq 1..4 from
  // member 2, in stamp order, and agrees on where the sequence ends.
  for (gcs::MemberId m : rig.view.members) {
    const auto& log = rig.node(m).delivered;
    ASSERT_EQ(log.size(), 4u) << "member " << m;
    for (uint64_t i = 0; i < 4; ++i)
      EXPECT_EQ(log[i].id, (gcs::MsgId{2, i + 1})) << "member " << m;
    EXPECT_EQ(rig.node(m).eng.delivered_global(), 4u) << "member " << m;
    EXPECT_EQ(rig.node(m).eng.next_global(), 5u) << "member " << m;
  }
}

TEST(TokenRing, LostTokenRegeneratesAndDeliveryResumes) {
  GcsHarness h(3, 5, use_engine(gcs::OrderingMode::kTokenRing));
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  // A working ring first.
  h.members[0]->multicast(h.payload_of(1));
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != 1) return false;
    return true;
  }));
  uint64_t id_before = max_token_id(h);

  // Kill every packet long enough for the in-flight token to vanish, with
  // traffic queued behind the outage.
  h.net.mutable_config().loss_rate = 1.0;
  h.members[1]->multicast(h.payload_of(2));
  h.sim.run_for(sim::msec(150));
  h.net.mutable_config().loss_rate = 0.0;

  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() != 2) return false;
    return true;
  })) << "delivery must resume after the token is regenerated";
  EXPECT_GT(max_token_id(h), id_before)
      << "recovery must come from a regenerated (higher-id) token";
  for (const auto& log : h.logs) EXPECT_TRUE(GcsHarness::fifo_clean(log.delivered));
}

TEST(TokenRing, HolderCrashSurvivedByViewChange) {
  GcsHarness h(3, 11, use_engine(gcs::OrderingMode::kTokenRing));
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  for (int i = 0; i < 3; ++i)
    h.members[static_cast<size_t>(i)]->multicast(h.payload_of(i));

  // Catch the token at a member and crash exactly that member.
  int holder = -1;
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return (holder = holder_index(h)) >= 0; }));
  h.net.crash_host(h.hosts[static_cast<size_t>(holder)]);
  ASSERT_TRUE(h.run_until_converged(2));

  // The reformed ring still orders fresh traffic.
  size_t other = holder == 0 ? 1 : 0;
  h.members[other]->multicast(h.payload_of(99));
  EXPECT_TRUE(testutil::run_until(h.sim, [&] {
    for (size_t i = 0; i < h.members.size(); ++i) {
      if (static_cast<int>(i) == holder) continue;
      const auto& log = h.logs[i].delivered;
      if (log.empty() || log.back().payload != h.payload_of(99)) return false;
    }
    return true;
  })) << "the ring must re-form and keep ordering after the holder dies";
  for (size_t i = 0; i < h.members.size(); ++i) {
    if (static_cast<int>(i) == holder) continue;
    for (size_t j = i + 1; j < h.members.size(); ++j) {
      if (static_cast<int>(j) == holder) continue;
      EXPECT_TRUE(
          GcsHarness::prefix_consistent(h.logs[i].delivered, h.logs[j].delivered));
    }
    EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[i].delivered));
  }
}

}  // namespace
