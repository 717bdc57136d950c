#include "gcs/ordering.h"

#include <gtest/gtest.h>

#include "gcs/messages.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>

namespace {

using gcs::CutVector;
using gcs::DataMsg;
using gcs::MemberId;
using gcs::MsgId;
using gcs::OrderingBuffer;
using gcs::View;

View make_view(std::vector<MemberId> members, uint64_t epoch = 1) {
  View v;
  v.id = {epoch, members.empty() ? sim::kInvalidHost : members.front()};
  v.members = std::move(members);
  return v;
}

DataMsg msg(MemberId sender, uint64_t seq, uint64_t lamport) {
  DataMsg m;
  m.id = {sender, seq};
  m.lamport = lamport;
  m.payload = {static_cast<uint8_t>(seq)};
  return m;
}

class OrderingTest : public ::testing::Test {
 protected:
  void SetUp() override { buf_.reset(make_view({0, 1, 2}), 0); }
  OrderingBuffer buf_;
};

TEST_F(OrderingTest, DuplicatesIgnored) {
  EXPECT_TRUE(buf_.insert(msg(1, 1, 10)));
  EXPECT_FALSE(buf_.insert(msg(1, 1, 10)));
  // Also after delivery:
  buf_.observe(1, 11, 1, {});
  buf_.observe(2, 11, 0, {});
  buf_.drain();
  EXPECT_FALSE(buf_.insert(msg(1, 1, 10)));
}

TEST_F(OrderingTest, OutOfOrderDuplicateIgnored) {
  EXPECT_TRUE(buf_.insert(msg(1, 3, 30)));
  EXPECT_FALSE(buf_.insert(msg(1, 3, 30)));
}

TEST_F(OrderingTest, AgreedWaitsForAllMembersClocks) {
  buf_.insert(msg(1, 1, 10));
  // Heard only from the sender (via the message itself).
  buf_.observe(1, 10, 1, {});
  EXPECT_TRUE(buf_.drain().empty()) << "member 2 not heard yet";
  buf_.observe(2, 11, 0, {});
  auto out = buf_.drain();
  ASSERT_EQ(out.size(), 1u);
}

TEST_F(OrderingTest, AgreedRequiresStrictlyGreaterClock) {
  buf_.insert(msg(1, 1, 10));
  buf_.observe(1, 10, 1, {});
  buf_.observe(2, 10, 0, {});  // equal, not greater
  EXPECT_TRUE(buf_.drain().empty());
  buf_.observe(2, 11, 0, {});
  EXPECT_EQ(buf_.drain().size(), 1u);
}

TEST_F(OrderingTest, AgreedTotalOrderByLamportThenSender) {
  buf_.insert(msg(2, 1, 10));
  buf_.insert(msg(1, 1, 10));  // same lamport, lower sender id wins
  buf_.observe(1, 12, 1, {});
  buf_.observe(2, 12, 1, {});
  auto out = buf_.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id.sender, 1u);
  EXPECT_EQ(out[1].id.sender, 2u);
}

TEST_F(OrderingTest, AgreedBlockedByKnownGapFromThirdMember) {
  buf_.insert(msg(1, 1, 10));
  buf_.observe(1, 11, 1, {});
  // Member 2's clock passed m but it claims 1 sent message we don't have.
  buf_.observe(2, 12, 1, {});
  EXPECT_TRUE(buf_.drain().empty()) << "message from 2 may order before m";
  // The missing message arrives and orders first.
  buf_.insert(msg(2, 1, 5));
  auto out = buf_.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id.sender, 2u) << "lamport 5 before lamport 10";
  EXPECT_EQ(out[1].id.sender, 1u);
}

TEST_F(OrderingTest, SelfMessagesDeliverInSingletonView) {
  buf_.reset(make_view({0}), 0);
  buf_.insert(msg(0, 1, 1));
  buf_.observe(0, 1, 1, {});
  EXPECT_EQ(buf_.drain().size(), 1u);
}

TEST_F(OrderingTest, GapsReported) {
  buf_.observe(1, 10, 3, {});  // member 1 claims 3 sent
  buf_.insert(msg(1, 2, 8));   // have only seq 2 (out of order)
  auto gaps = buf_.gaps();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], (MsgId{1, 1}));
  EXPECT_EQ(gaps[1], (MsgId{1, 3}));
}

TEST_F(OrderingTest, ReceivedVectorTracksContiguity) {
  buf_.insert(msg(1, 1, 10));
  buf_.insert(msg(1, 3, 30));
  EXPECT_EQ(buf_.received_upto(1), 1u);
  buf_.insert(msg(1, 2, 20));
  EXPECT_EQ(buf_.received_upto(1), 3u) << "out-of-order promoted";
}

TEST_F(OrderingTest, FlushDeliversEverythingContiguousInOrder) {
  buf_.insert(msg(1, 1, 30));
  buf_.insert(msg(2, 1, 10));
  buf_.insert(msg(2, 2, 20));
  auto out = buf_.flush_all();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].lamport, 10u);
  EXPECT_EQ(out[1].lamport, 20u);
  EXPECT_EQ(out[2].lamport, 30u);
  EXPECT_EQ(buf_.pending_count(), 0u);
}

TEST_F(OrderingTest, FlushDropsUnfillableOutOfOrder) {
  buf_.insert(msg(1, 5, 50));  // permanent gap 1..4
  auto out = buf_.flush_all();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(buf_.pending_count(), 0u);
}

TEST_F(OrderingTest, HeldMessagesIncludesOutOfOrder) {
  buf_.insert(msg(1, 1, 10));
  buf_.insert(msg(2, 5, 50));
  EXPECT_EQ(buf_.held_messages().size(), 2u);
}

TEST_F(OrderingTest, StableUptoIsMinAcrossCuts) {
  buf_.insert(msg(1, 1, 10));
  buf_.insert(msg(1, 2, 20));
  buf_.observe(1, 21, 2, {{1, 2}});
  buf_.observe(2, 21, 0, {{1, 1}});
  EXPECT_EQ(buf_.stable_upto(1), 1u) << "member 2 only has seq 1";
}

TEST_F(OrderingTest, SetStreamPositionSkipsAhead) {
  buf_.set_stream_position(1, 5);
  EXPECT_EQ(buf_.received_upto(1), 5u);
  EXPECT_FALSE(buf_.insert(msg(1, 3, 30))) << "below the baseline";
  EXPECT_TRUE(buf_.insert(msg(1, 6, 60)));
}

TEST_F(OrderingTest, SetStreamPositionToZeroResetsJoiner) {
  buf_.insert(msg(1, 1, 10));
  buf_.observe(1, 11, 1, {});
  buf_.observe(2, 11, 0, {});
  buf_.drain();
  EXPECT_EQ(buf_.received_upto(1), 1u);
  buf_.set_stream_position(1, 0);
  EXPECT_TRUE(buf_.insert(msg(1, 1, 99))) << "fresh incarnation restarts at 1";
}

TEST_F(OrderingTest, ViewChangeDropsDepartedPeerFromConditions) {
  buf_.insert(msg(1, 1, 10));
  buf_.observe(1, 11, 1, {});
  // Member 2 never speaks; AGREED blocked.
  EXPECT_TRUE(buf_.drain().empty());
  // New view without member 2: progress resumes.
  buf_.reset(make_view({0, 1}, 2), 0);
  buf_.insert(msg(1, 2, 12));
  buf_.observe(1, 13, 2, {});
  auto out = buf_.drain();
  EXPECT_EQ(out.size(), 1u) << "old undelivered was flushed by caller; new "
                               "message delivers without member 2";
}

TEST_F(OrderingTest, DrainDeliversReadyRunInOnePass) {
  // One drain() hands back the whole deliverable run, every sender's share
  // of it included.
  constexpr uint64_t kRun = 16;
  for (uint64_t s = 1; s <= kRun; ++s) buf_.insert(msg(1, s, 10 + s));
  for (uint64_t s = 1; s <= kRun / 2; ++s) buf_.insert(msg(2, s, 100 + s));
  buf_.observe(1, 1000, kRun, {});
  buf_.observe(2, 1000, kRun / 2, {});
  auto out = buf_.drain();
  ASSERT_EQ(out.size(), kRun + kRun / 2);
  auto from = [&](MemberId sender) {
    return std::count_if(out.begin(), out.end(), [&](const DataMsg& m) {
      return m.id.sender == sender;
    });
  };
  EXPECT_EQ(from(1), static_cast<ptrdiff_t>(kRun));
  EXPECT_EQ(from(2), static_cast<ptrdiff_t>(kRun / 2));
  EXPECT_TRUE(buf_.drain().empty());
  // The run came out in lamport order.
  for (size_t i = 1; i < out.size(); ++i)
    EXPECT_LT(out[i - 1].lamport, out[i].lamport);
}

TEST_F(OrderingTest, ReincarnatedSenderStartsWithNoAcks) {
  // Member 1 acks seq 10 of member 2's stream.
  buf_.observe(1, 20, 0, {{2, 10}});
  // Member 2 crashes and rejoins: the view is reinstalled the way
  // GroupMember::install_view treats a joiner.
  buf_.reset(make_view({0, 1, 2}, 2), 0);
  buf_.reset_peer(2);
  buf_.set_stream_position(2, 0);
  // The fresh incarnation sends seq 1 (its header acks it); member 1
  // holds none of it yet.
  buf_.insert(msg(2, 1, 30));
  buf_.observe(2, 30, 1, {{2, 1}});
  buf_.observe(1, 31, 0, {{2, 0}});
  EXPECT_EQ(buf_.peer_received(1, 2), 0u)
      << "member 1's ack of the dead incarnation's stream survived";
  EXPECT_EQ(buf_.stable_upto(2), 0u)
      << "seq 1 counted stable although member 1 does not hold it";
}

TEST_F(OrderingTest, UntrustedCutEntriesMergeByMaxWithinTheView) {
  // Unsorted, repeated and non-member entries: each member entry keeps its
  // maximum, everything else is ignored.
  buf_.observe(1, 5, 0, {{2, 4}, {0, 3}, {2, 9}, {7, 50}, {0, 1}, {2, 6}});
  EXPECT_EQ(buf_.peer_received(1, 0), 3u);
  EXPECT_EQ(buf_.peer_received(1, 2), 9u);
  EXPECT_EQ(buf_.peer_received(1, 7), 0u);
  // A non-member's claims are dropped whole.
  buf_.observe(7, 5, 40, {{0, 8}});
  EXPECT_EQ(buf_.peer_sent_upto(7), 0u);
  EXPECT_EQ(buf_.peer_received(7, 0), 0u);
  EXPECT_TRUE(buf_.gaps().empty());
}

// -- differential test ---------------------------------------------------------
//
// A map-keyed reference model of the buffer's peer bookkeeping: per-member
// sent watermarks and cut claims, per-sender receive watermarks with
// out-of-order staging. Claims exist only by members about members' streams;
// reset_peer forgets a member's row and every claim about its stream. The
// buffer must answer every query exactly like the model after every step of
// a random schedule of view changes, cuts, inserts and stream moves. Half of
// the cuts go through the wire-bytes merge (observe_in_place), and one
// schedule runs a 64-member universe, so the incrementally kept column
// minima and missing-count are checked against a direct computation.

class PeerModel {
 public:
  void reset(const View& view, MemberId self) {
    view_ = view;
    self_ = self;
    held_.clear();
    std::erase_if(sent_, [&](const auto& e) { return !view.contains(e.first); });
    std::erase_if(claims_,
                  [&](const auto& e) { return !view.contains(e.first); });
    for (auto& [q, row] : claims_) {
      (void)q;
      std::erase_if(row, [&](const auto& e) { return !view.contains(e.first); });
    }
    for (MemberId m : view.members) recv_.try_emplace(m, 0);
  }

  void observe(MemberId p, uint64_t sent, const CutVector& cut) {
    if (!view_.contains(p)) return;
    sent_[p] = std::max(sent_[p], sent);
    for (const auto& [s, seq] : cut) {
      if (!view_.contains(s)) continue;
      uint64_t& have = claims_[p][s];
      have = std::max(have, seq);
    }
  }

  void insert(MsgId id) {
    uint64_t& upto = recv_[id.sender];
    if (id.seq <= upto) return;
    held_.insert(id);
    promote(id.sender);
  }

  void set_stream_position(MemberId s, uint64_t seq) {
    recv_[s] = seq;
    std::erase_if(held_, [&](const MsgId& id) {
      return id.sender == s && id.seq <= seq;
    });
    promote(s);
  }

  void reset_peer(MemberId m) {
    sent_.erase(m);
    claims_.erase(m);
    for (auto& [q, row] : claims_) {
      (void)q;
      row.erase(m);
    }
  }

  uint64_t received_upto(MemberId s) const { return get(recv_, s); }
  uint64_t peer_sent_upto(MemberId q) const { return get(sent_, q); }
  uint64_t peer_received(MemberId q, MemberId s) const {
    auto it = claims_.find(q);
    return it == claims_.end() ? 0 : get(it->second, s);
  }
  uint64_t stable_upto(MemberId s) const {
    uint64_t lo = received_upto(s);
    for (MemberId q : view_.members)
      if (q != self_) lo = std::min(lo, peer_received(q, s));
    return lo;
  }
  std::vector<MsgId> gaps() const {
    std::vector<MsgId> out;
    for (MemberId q : view_.members) {
      if (received_upto(q) >= peer_sent_upto(q)) continue;
      for (uint64_t seq = received_upto(q) + 1; seq <= peer_sent_upto(q); ++seq)
        if (!held_.count(MsgId{q, seq})) out.push_back({q, seq});
    }
    return out;
  }
  bool missing_from_peers() const {
    for (MemberId q : view_.members)
      if (q != self_ && received_upto(q) < peer_sent_upto(q)) return true;
    return false;
  }
  CutVector received_vector() const { return {recv_.begin(), recv_.end()}; }

 private:
  static uint64_t get(const std::map<MemberId, uint64_t>& m, MemberId k) {
    auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  }
  void promote(MemberId s) {
    uint64_t& upto = recv_[s];
    while (held_.erase(MsgId{s, upto + 1})) ++upto;
  }

  View view_;
  MemberId self_ = sim::kInvalidHost;
  std::map<MemberId, uint64_t> recv_;
  std::set<MsgId> held_;  ///< received above a gap
  std::map<MemberId, uint64_t> sent_;
  std::map<MemberId, std::map<MemberId, uint64_t>> claims_;
};

/// One differential schedule: a member universe 0..members-1 (the view
/// draws from it), plus ids that are never members, one of them far beyond
/// any plausible rank table.
struct Universe {
  MemberId members;
  int steps;
  std::vector<MemberId> ids() const {
    std::vector<MemberId> out;
    for (MemberId m = 0; m < members; ++m) out.push_back(m);
    out.push_back(1000);
    out.push_back(0xFFFFFFF0u);
    return out;
  }
};
constexpr MemberId kSelf = 3;
constexpr uint64_t kMaxSeq = 12;

::testing::AssertionResult same_answers(const OrderingBuffer& buf,
                                        const PeerModel& model,
                                        const std::vector<MemberId>& ids) {
  if (buf.received_vector() != model.received_vector())
    return ::testing::AssertionFailure() << "received_vector differs";
  if (buf.gaps() != model.gaps())
    return ::testing::AssertionFailure() << "gaps differ";
  if (buf.missing_from_peers() != model.missing_from_peers())
    return ::testing::AssertionFailure()
           << "missing_from_peers " << buf.missing_from_peers();
  for (MemberId q : ids) {
    if (buf.received_upto(q) != model.received_upto(q))
      return ::testing::AssertionFailure() << "received_upto(" << q << ")";
    if (buf.stable_upto(q) != model.stable_upto(q))
      return ::testing::AssertionFailure()
             << "stable_upto(" << q << ") " << buf.stable_upto(q) << " vs "
             << model.stable_upto(q);
    if (buf.peer_sent_upto(q) != model.peer_sent_upto(q))
      return ::testing::AssertionFailure() << "peer_sent_upto(" << q << ")";
    for (MemberId s : ids) {
      if (buf.peer_received(q, s) != model.peer_received(q, s))
        return ::testing::AssertionFailure()
               << "peer_received(" << q << ", " << s << ") "
               << buf.peer_received(q, s) << " vs " << model.peer_received(q, s);
    }
  }
  return ::testing::AssertionSuccess();
}

void run_differential(uint64_t seed, Universe universe = {8, 4000}) {
  const std::vector<MemberId> ids = universe.ids();
  const MemberId n_members = universe.members;
  std::mt19937_64 rng(seed);
  auto below = [&](uint64_t n) { return rng() % n; };
  auto any_id = [&] {
    return below(8) == 0 ? ids[n_members + below(2)]
                         : static_cast<MemberId>(below(n_members));
  };
  // Mostly small, so streams, claims and gaps interact; often spread wider
  // than the 64 values a column keeps counts for above its minimum; now
  // and then next to the top of the range.
  auto position = [&]() -> uint64_t {
    switch (below(16)) {
      case 0: case 1: case 2: case 3: return kMaxSeq + below(200);
      case 4: return UINT64_MAX - below(4);
      default: return below(kMaxSeq + 1);
    }
  };
  OrderingBuffer buf;
  PeerModel model;
  View view = make_view({0, 1, 2, kSelf});
  buf.reset(view, kSelf);
  model.reset(view, kSelf);
  for (int step = 0; step < universe.steps; ++step) {
    uint64_t op = below(100);
    if (op < 45) {
      // A header: mostly from members. Half the cuts have any shape; the
      // others look like a member's received vector (every id in order),
      // sometimes with one entry moved, repeated or dropped.
      CutVector cut;
      if (below(2) == 0) {
        size_t n = below(11);
        for (size_t i = 0; i < n; ++i) cut.emplace_back(any_id(), position());
        if (below(2) == 0) std::sort(cut.begin(), cut.end());
      } else {
        for (MemberId m : ids)
          if (view.contains(m) || below(4) == 0)
            cut.emplace_back(m, position());
        if (!cut.empty() && below(4) == 0) {
          size_t i = below(cut.size());
          size_t j = below(cut.size());
          switch (below(3)) {
            case 0: std::swap(cut[i], cut[j]); break;
            case 1: cut.insert(cut.begin() + i, {cut[j].first, position()}); break;
            default: cut.erase(cut.begin() + i); break;
          }
        }
      }
      MemberId p = below(6) == 0 ? any_id() : view.members[below(view.size())];
      uint64_t sent = below(kMaxSeq + 1);
      if (below(2) == 0) {
        buf.observe(p, 1, sent, cut);
      } else {
        // Straight from the wire bytes, as GroupMember merges a cut.
        sim::Payload bytes =
            net::encode(gcs::CutWire{{p, 1, sent, cut}, false});
        auto wire = net::decode<gcs::CutWireView>(bytes);
        buf.observe_in_place(wire.header.from, wire.header.lamport,
                             wire.header.sent_upto, wire.header.received);
      }
      model.observe(p, sent, cut);
    } else if (op < 80) {
      MemberId s = below(4) == 0 ? any_id() : view.members[below(view.size())];
      if (s == kSelf) continue;  // own stream is inserted in order by the sender
      uint64_t seq = 1 + below(kMaxSeq);
      buf.insert(msg(s, seq, 1 + below(100)));
      model.insert(MsgId{s, seq});
    } else if (op < 88) {
      MemberId s = any_id();
      uint64_t seq = position();
      buf.set_stream_position(s, seq);
      model.set_stream_position(s, seq);
    } else {
      // View change: members come and go (self stays), some of the
      // survivors reincarnate, and every member's stream position settles
      // as GroupMember::install_view does. Each step is checked.
      std::vector<MemberId> members = {kSelf};
      for (MemberId m = 0; m < n_members; ++m)
        if (m != kSelf && below(3) != 0) members.push_back(m);
      std::sort(members.begin(), members.end());
      view = make_view(members, view.id.epoch + 1);
      buf.reset(view, kSelf);
      model.reset(view, kSelf);
      ASSERT_TRUE(same_answers(buf, model, ids))
          << "seed " << seed << " step " << step << " after reset";
      for (MemberId m : members) {
        if (m != kSelf && below(4) == 0) {
          buf.reset_peer(m);
          model.reset_peer(m);
          ASSERT_TRUE(same_answers(buf, model, ids))
              << "seed " << seed << " step " << step << " reset_peer " << m;
          buf.set_stream_position(m, 0);
          model.set_stream_position(m, 0);
        } else if (below(2) == 0) {
          uint64_t seq = std::max(position(), model.received_upto(m));
          buf.set_stream_position(m, seq);
          model.set_stream_position(m, seq);
        }
      }
    }
    ASSERT_TRUE(same_answers(buf, model, ids))
        << "seed " << seed << " step " << step;
  }
}

TEST(OrderingDifferential, MatchesMapModelSeed1) { run_differential(1); }
TEST(OrderingDifferential, MatchesMapModelSeed2) { run_differential(2); }
TEST(OrderingDifferential, MatchesMapModelSeed3) { run_differential(3); }
TEST(OrderingDifferential, MatchesMapModel64Members) {
  run_differential(4, {64, 1500});
}

}  // namespace
