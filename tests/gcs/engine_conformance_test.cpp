// Engine conformance suite: every (engine x batch x window) combination is
// driven through the same randomized fault schedule -- lossy steady-state
// traffic, a burst cut short by a crash (a view change with full batches in
// flight), a partition of one member while the majority keeps ordering,
// then a heal and a final clean round -- and must uphold the same contract:
//
//   C1 (total order): any two members deliver the messages they have in
//      common in the same relative order. Messages are identified by
//      payload, which is unique per send -- sequence numbers are not a key
//      across a partition-merge, where a rejoining member's stream restarts.
//   C2 (no duplicates): no member delivers the same payload twice.
//   C3 (watermark monotonicity): per sender, delivered sequence numbers
//      only move forward, except for an explicit restart back to 1 when the
//      sender rejoined with a fresh stream.
//   C4 (completeness): every message sent by the continuously-majority
//      members reaches all of them -- nothing is stranded in a window queue
//      or a half-announced batch by the faults.
//   C5 (reference equivalence): at the quiesced checkpoint after the crash,
//      the delivered message set equals the unbatched all-ack reference
//      run's set for the same seed. Batching and windowing may change when
//      things deliver, never what.
//
// Cross-engine logs cannot be compared position-by-position (all-ack orders
// by Lamport clock, the token ring by stamp), and the merge's transient
// views make even same-engine full-log equality seed-dependent, so C1/C5
// are exactly the strongest checks that are invariant across every
// combination -- the same standard as the PR 6 engine-equivalence test.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "gcs/gcs_harness.h"

namespace {

using gcstest::GcsHarness;

struct ConformParam {
  gcs::OrderingMode mode;
  uint32_t batch;
  uint32_t window;
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const ConformParam& p) {
    return os << gcs::to_string(p.mode) << "_b" << p.batch << "_w" << p.window
              << "_seed" << p.seed;
  }
};

constexpr int kMembers = 5;

/// One full drive of the shared fault schedule. Hosts 0..2 stay in the
/// majority throughout; host 3 is partitioned away and healed; host 4
/// crashes mid-burst and never returns.
/// Payloads in this suite all come from payload_of(counter), so the unique
/// counter is recoverable from the first two bytes and serves as the message
/// identity (sim::Payload itself is not ordered).
int payload_key(const sim::Payload& p) {
  return static_cast<int>(p[0]) | (static_cast<int>(p[1]) << 8);
}

struct DriveResult {
  std::vector<std::vector<gcs::Delivered>> logs;   // per member, full run
  std::vector<std::vector<int>> sent;              // per member, send order
  std::vector<sim::HostId> hosts;                  // member index -> host id
  std::set<int> checkpoint;  // member 0's delivered set, post-crash
  bool converged = false;
  bool drained_crash = false;  // every member caught up at the checkpoint
  bool drained_final = false;  // majority caught up after the heal
  uint64_t window_stalls = 0;  // summed over members
};

DriveResult run_drive(gcs::OrderingMode mode, uint32_t batch, uint32_t window,
                      uint64_t seed) {
  DriveResult res;
  auto tweak = [&](gcs::GroupConfig& cfg) {
    cfg.ordering = mode;
    cfg.order_batch = batch;
    cfg.inflight_window = window;
    cfg.require_majority = true;
  };
  GcsHarness h(kMembers, seed, tweak);
  h.join_all();
  if (!h.run_until_converged(kMembers)) return res;

  res.sent.resize(kMembers);
  int counter = 0;
  auto send = [&](int m) {
    res.sent[static_cast<size_t>(m)].push_back(counter);
    h.members[static_cast<size_t>(m)]->multicast(h.payload_of(counter++));
  };
  // True when `member`'s log contains every payload `sender` sent so far.
  auto caught_up = [&](int member, int sender) {
    std::set<int> have;
    for (const gcs::Delivered& d : h.logs[static_cast<size_t>(member)].delivered)
      have.insert(payload_key(d.payload));
    for (int key : res.sent[static_cast<size_t>(sender)])
      if (!have.count(key)) return false;
    return true;
  };

  // Phase A: lossy steady state. Everyone sends, 10% of packets vanish.
  h.net.mutable_config().loss_rate = 0.10;
  for (int round = 0; round < 4; ++round) {
    for (int m = 0; m < kMembers; ++m) {
      send(m);
      h.sim.run_for(sim::msec(static_cast<int64_t>((seed + m) % 5)));
    }
  }

  // Phase B: a burst from everyone with no drain in between -- the batched
  // paths have full announcements/ack-cuts in flight -- then host 4 dies
  // mid-batch and the view change must resolve the remnants identically.
  for (int m = 0; m < kMembers; ++m)
    for (int k = 0; k < 4; ++k) send(m);
  h.net.crash_host(h.hosts[kMembers - 1]);
  h.net.mutable_config().loss_rate = 0.0;
  if (!h.run_until_converged(kMembers - 1, sim::seconds(120))) return res;

  // Checkpoint: with the view stable at {0,1,2,3}, every survivor must
  // catch up on every survivor's sends (NACK recovery + flush), after which
  // the delivered sets are directly comparable across configurations.
  res.drained_crash = testutil::run_until(
      h.sim,
      [&] {
        for (int m = 0; m < kMembers - 1; ++m)
          for (int s = 0; s < kMembers - 1; ++s)
            if (!caught_up(m, s)) return false;
        return true;
      },
      sim::seconds(60));
  // Sender 4 is excluded: how much of the crashed member's in-flight tail
  // survives depends on packet timing, which the knobs legitimately change.
  // Within one run it is identical at every member -- C1 covers that.
  for (const gcs::Delivered& d : h.logs[0].delivered)
    if (d.sender != h.hosts[kMembers - 1])
      res.checkpoint.insert(payload_key(d.payload));

  // Phase C: partition host 3 into a minority of one (require_majority
  // blocks it); the majority keeps ordering traffic meanwhile.
  h.net.set_partition(h.hosts[3], 1);
  testutil::run_until(
      h.sim, [&] { return h.members[0]->view().size() == kMembers - 2; },
      sim::seconds(60));
  if (h.members[0]->view().size() != kMembers - 2) return res;
  for (int round = 0; round < 2; ++round) {
    for (int m = 0; m < 3; ++m) {
      send(m);
      h.sim.run_for(sim::msec(static_cast<int64_t>((seed + m) % 3)));
    }
  }

  // Heal: the partitioned member merges back (possibly through transient
  // views -- suspicion races during a merge are legitimate), then a final
  // clean round from the continuous majority must reach all of it.
  h.net.clear_partitions();
  if (!h.run_until_converged(kMembers - 1, sim::seconds(120))) return res;
  for (int m = 0; m < 3; ++m) send(m);
  res.drained_final = testutil::run_until(
      h.sim,
      [&] {
        for (int m = 0; m < 3; ++m)
          for (int s = 0; s < 3; ++s)
            if (!caught_up(m, s)) return false;
        return true;
      },
      sim::seconds(60));
  h.sim.run_for(sim::seconds(5));  // quiesce

  res.converged = true;
  res.hosts = h.hosts;
  res.logs.resize(kMembers);
  for (int m = 0; m < kMembers; ++m) {
    res.logs[static_cast<size_t>(m)] = h.logs[static_cast<size_t>(m)].delivered;
    res.window_stalls +=
        h.members[static_cast<size_t>(m)]->stats().window_stalls.count();
  }
  return res;
}

/// The per-seed reference run: all-ack, unbatched, unwindowed -- the PR 6
/// behaviour every combination must be checkpoint-equivalent to.
const DriveResult& reference_for(uint64_t seed) {
  static std::map<uint64_t, DriveResult>* cache =
      new std::map<uint64_t, DriveResult>();
  auto it = cache->find(seed);
  if (it == cache->end())
    it = cache->emplace(seed, run_drive(gcs::OrderingMode::kAllAck, 1, 1, seed))
             .first;
  return it->second;
}

class EngineConformanceTest : public ::testing::TestWithParam<ConformParam> {};

TEST_P(EngineConformanceTest, FaultScheduleUpholdsOrderingContract) {
  const ConformParam p = GetParam();
  const DriveResult res = run_drive(p.mode, p.batch, p.window, p.seed);
  ASSERT_TRUE(res.converged) << "drive did not reach the final view";
  ASSERT_TRUE(res.drained_crash) << "post-crash checkpoint never drained";
  ASSERT_TRUE(res.drained_final) << "post-heal round never delivered";

  // C1: common messages in the same relative order, every surviving pair.
  for (size_t a = 0; a + 1 < static_cast<size_t>(kMembers); ++a) {
    for (size_t b = a + 1; b + 1 < static_cast<size_t>(kMembers); ++b) {
      std::map<int, size_t> pos_a;
      for (size_t i = 0; i < res.logs[a].size(); ++i)
        pos_a.emplace(payload_key(res.logs[a][i].payload), i);
      size_t last = 0;
      bool first = true;
      for (const gcs::Delivered& d : res.logs[b]) {
        auto it = pos_a.find(payload_key(d.payload));
        if (it == pos_a.end()) continue;
        if (!first) {
          EXPECT_GT(it->second, last)
              << "members " << a << "," << b << " disagree on order";
        }
        last = it->second;
        first = false;
      }
    }
  }

  for (size_t m = 0; m + 1 < static_cast<size_t>(kMembers); ++m) {
    // C2: no payload delivered twice.
    std::set<int> seen;
    for (const gcs::Delivered& d : res.logs[m])
      EXPECT_TRUE(seen.insert(payload_key(d.payload)).second)
          << "member " << m << " delivered a duplicate";
    // C3: per-sender watermarks only move forward (or restart at 1 when the
    // sender rejoined with a fresh stream after the merge).
    std::map<gcs::MemberId, uint64_t> mark;
    for (const gcs::Delivered& d : res.logs[m]) {
      uint64_t& last = mark[d.sender];
      EXPECT_TRUE(d.seq > last || d.seq == 1)
          << "member " << m << ": sender " << d.sender << " went " << last
          << " -> " << d.seq;
      last = d.seq;
    }
  }

  // C4: everything the continuous majority (members 0..2) sent is delivered
  // at all of 0..2.
  for (size_t m = 0; m < 3; ++m) {
    std::set<int> have;
    for (const gcs::Delivered& d : res.logs[m])
      have.insert(payload_key(d.payload));
    for (size_t s = 0; s < 3; ++s)
      for (int sent : res.sent[s])
        EXPECT_TRUE(have.count(sent))
            << "member " << m << " missing a send from member " << s;
  }

  // C5: checkpoint set equality against the unbatched all-ack reference.
  const DriveResult& ref = reference_for(p.seed);
  ASSERT_TRUE(ref.converged) << "reference drive did not converge";
  ASSERT_TRUE(ref.drained_crash);
  EXPECT_EQ(res.checkpoint, ref.checkpoint);

  // window=1 with this traffic pattern must exercise the stall path --
  // guards against the knob silently not reaching the members.
  if (p.window == 1) {
    EXPECT_GT(res.window_stalls, 0u);
  }
}

std::vector<ConformParam> all_combos() {
  std::vector<ConformParam> out;
  for (gcs::OrderingMode mode :
       {gcs::OrderingMode::kAllAck, gcs::OrderingMode::kTokenRing})
    for (uint32_t batch : {1u, 8u, 64u})
      for (uint32_t window : {1u, 16u})
        for (uint64_t seed : {21u, 22u, 23u})
          out.push_back({mode, batch, window, seed});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, EngineConformanceTest,
                         ::testing::ValuesIn(all_combos()),
                         [](const ::testing::TestParamInfo<ConformParam>& i) {
                           std::ostringstream os;
                           os << i.param;
                           return os.str();
                         });

}  // namespace
