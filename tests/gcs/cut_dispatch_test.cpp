// Dispatcher-level robustness of the cut and data paths.
//
// GroupMember::on_packet reads a cut in place and merges it straight from
// the packet bytes, so every malformed cut must be rejected whole before
// any state changes. Each bad variant of one cut -- truncated at every
// length, a count too large or too small for the size, trailing bytes,
// another type byte, a sender outside the view -- is fed to a settled
// member, which must keep its watermarks, peer claims, stability points,
// gaps and delivered stream exactly as they were. The valid cut, fed last,
// must change them (so the checks can see a partial merge).
//
// A data packet is fed the same way: every truncation, every single-byte
// flip and seeded 2-8 byte overwrites. Each must be dropped without a
// trace, or be a well-formed data message from a member about its own
// stream; the valid packet, fed last, must then still deliver.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gcs/messages.h"
#include "gcs_harness.h"
#include "util/logging.h"

namespace {

using gcs::CutVector;
using gcs::MemberId;
using gcstest::GcsHarness;

/// Everything a packet can touch at one member, as plain comparable values.
struct Snapshot {
  size_t pending = 0;  ///< held and undelivered, in order or not
  CutVector received;
  std::vector<uint64_t> claims;  ///< peer_received, every (member, sender)
  std::vector<uint64_t> stable;  ///< stable_upto, every sender
  std::vector<gcs::MsgId> gaps;
  std::vector<std::pair<MemberId, uint64_t>> delivered;
  bool operator==(const Snapshot&) const = default;
};

class CutDispatch : public ::testing::Test {
 protected:
  void SetUp() override {
    jutil::Logger::instance().set_sink(
        [this](jutil::LogLevel, std::string_view line) {
          if (line.find("malformed message") != std::string_view::npos)
            ++malformed_logged_;
        });
    settle();
  }

  /// A fresh group of three, settled after member 1 sent three messages.
  void settle() {
    // Heartbeats and suspicion far apart: the group settles and stays put
    // while the bad packets go in.
    h_ = std::make_unique<GcsHarness>(3, 1, [this](gcs::GroupConfig& cfg) {
      cfg.heartbeat_interval = sim::seconds(20);
      cfg.suspect_timeout = sim::seconds(120);
      cfg.flush_timeout = sim::seconds(240);
      tweak(cfg);
    });
    h_->join_all();
    ASSERT_TRUE(h_->run_until_converged(3));
    for (int i = 0; i < 3; ++i) h_->members[1]->multicast(h_->payload_of(i));
    h_->sim.run_for(sim::msec(200));
    ASSERT_EQ(h_->logs[0].delivered.size(), 3u);
  }

  void TearDown() override { jutil::Logger::instance().set_sink(nullptr); }

  virtual void tweak(gcs::GroupConfig&) const {}

  gcs::GroupMember& target() { return *h_->members[0]; }

  Snapshot snapshot() const {
    const gcs::OrderingBuffer& b = h_->members[0]->ordering();
    Snapshot s;
    s.pending = b.pending_count();
    s.received = b.received_vector();
    for (MemberId q : h_->hosts) {
      s.stable.push_back(b.stable_upto(q));
      for (MemberId t : h_->hosts) s.claims.push_back(b.peer_received(q, t));
    }
    s.gaps = b.gaps();
    for (const gcs::Delivered& d : h_->logs[0].delivered)
      s.delivered.emplace_back(d.sender, d.seq);
    return s;
  }

  /// A cut from member 1 that claims more than anyone holds: applied, it
  /// raises member 1's row and opens gaps.
  gcs::CutWire fresh_cut(MemberId from) const {
    CutVector cut;
    for (MemberId m : h_->hosts) cut.emplace_back(m, 7);
    return gcs::CutWire{{from, 1000, 9, cut}, false};
  }

  /// Feed raw bytes to member 0 as if member 1 had sent them, and let the
  /// charged CPU time pass. True if member 0 logged them as malformed.
  bool feed(std::vector<uint8_t> bytes) {
    const int logged = malformed_logged_;
    sim::Packet p;
    p.src = sim::Endpoint{h_->hosts[1], 7000};
    p.dst = sim::Endpoint{h_->hosts[0], 7000};
    p.data = sim::Payload(bytes.begin(), bytes.end());
    target().on_packet(std::move(p));
    h_->sim.run_for(sim::msec(5));
    return malformed_logged_ > logged;
  }

  template <class Wire>
  static std::vector<uint8_t> bytes_of(const Wire& m) {
    sim::Payload p = net::encode(m);
    return {p.begin(), p.end()};
  }

  std::unique_ptr<GcsHarness> h_;
  int malformed_logged_ = 0;
};

/// Offset of the cut's u32 entry count: type byte, from, lamport, sent_upto.
constexpr size_t kCountAt = 1 + 4 + 8 + 8;

TEST_F(CutDispatch, MalformedCutsLeaveNoTrace) {
  const Snapshot before = snapshot();
  const std::vector<uint8_t> good = bytes_of(fresh_cut(h_->hosts[1]));
  ASSERT_EQ(good.size(), kCountAt + 4 + 12 * h_->hosts.size() + 1);

  // An empty packet has no type byte to dispatch on: dropped unlogged.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_EQ(feed({good.begin(), good.begin() + static_cast<ptrdiff_t>(len)}),
              len > 0);
    ASSERT_EQ(snapshot(), before) << "truncated to " << len << " bytes";
  }
  const uint32_t count = static_cast<uint32_t>(h_->hosts.size());
  for (uint32_t bad : {count - 1, count + 1, 0u, count * 2, 0xFFFFFFFFu}) {
    std::vector<uint8_t> b = good;
    std::memcpy(&b[kCountAt], &bad, sizeof bad);
    EXPECT_TRUE(feed(b));
    ASSERT_EQ(snapshot(), before) << "count " << bad << " for " << count;
  }
  for (size_t extra : {1u, 11u, 12u, 13u}) {
    std::vector<uint8_t> b = good;
    b.insert(b.end(), extra, 0);
    EXPECT_TRUE(feed(b));
    ASSERT_EQ(snapshot(), before) << extra << " trailing bytes";
  }
  // Another type byte routes the bytes to another decoder, which must
  // refuse them too (an unknown type is dropped unlogged).
  for (int tag = 0; tag < 256; ++tag) {
    if (tag == static_cast<int>(gcs::MsgType::kCut)) continue;
    std::vector<uint8_t> b = good;
    b[0] = static_cast<uint8_t>(tag);
    feed(b);
    ASSERT_EQ(snapshot(), before) << "type byte " << tag;
  }
  EXPECT_FALSE(feed(bytes_of(fresh_cut(4242))));
  ASSERT_EQ(snapshot(), before) << "cut from a non-member";

  // The same cut, well formed, does change every checked field it can.
  EXPECT_FALSE(feed(good));
  const Snapshot after = snapshot();
  EXPECT_NE(after.claims, before.claims);
  EXPECT_NE(after.gaps, before.gaps);
}

TEST_F(CutDispatch, UnsortedAndRepeatedEntriesMergeByMaximum) {
  const gcs::OrderingBuffer& b = target().ordering();
  const std::vector<MemberId>& hosts = h_->hosts;
  // Member 1's current claims, listed backwards with each entry repeated at
  // a lower value: nothing rises.
  CutVector stale;
  for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) {
    uint64_t have = b.peer_received(hosts[1], *it);
    stale.emplace_back(*it, have);
    stale.emplace_back(*it, have > 0 ? have - 1 : 0);
  }
  const Snapshot before = snapshot();
  feed(bytes_of(gcs::CutWire{{hosts[1], 1000, 0, stale}, false}));
  EXPECT_EQ(snapshot(), before);

  // A repeated entry keeps its maximum wherever it sits.
  const uint64_t have = b.peer_received(hosts[1], hosts[2]);
  CutVector repeated = {
      {hosts[2], have + 2}, {hosts[0], 0}, {hosts[2], have + 1}};
  feed(bytes_of(gcs::CutWire{{hosts[1], 1001, 0, repeated}, false}));
  EXPECT_EQ(b.peer_received(hosts[1], hosts[2]), have + 2);
  EXPECT_EQ(snapshot().delivered, before.delivered);
}

class DataDispatch : public CutDispatch {
 protected:
  /// The all-ack engine delivers a held message on lamport evidence alone;
  /// under the token ring a forged message would wait for a stamp its
  /// named sender never assigns.
  void tweak(gcs::GroupConfig& cfg) const override {
    cfg.ordering = gcs::OrderingMode::kAllAck;
  }

  /// Member 1's next data message, as member 1 would send it.
  std::vector<uint8_t> valid_data() const {
    const MemberId from = h_->hosts[1];
    gcs::DataMsg msg{{from, 4}, 1000, h_->payload_of(77)};
    return bytes_of(gcs::DataWire{
        {from, 1000, 4, h_->members[1]->ordering().received_vector()}, msg});
  }

  /// Feed one variant. It is dropped (member 0 as it was), or it is a
  /// well-formed data message from a member about its own stream, after
  /// which the group is rebuilt for the next variant.
  void expect_dropped_or_well_formed(std::vector<uint8_t> bytes,
                                     const std::string& what) {
    const Snapshot before = snapshot();
    feed(bytes);
    if (snapshot() == before) return;
    ++accepted_;
    const sim::Payload p(bytes.begin(), bytes.end());
    try {
      const auto m = net::decode<gcs::DataWire>(p);
      EXPECT_TRUE(target().view().contains(m.header.from)) << what;
      EXPECT_EQ(m.msg.id.sender, m.header.from) << what;
    } catch (const net::WireError& e) {
      ADD_FAILURE() << what << " changed member 0 but does not decode: "
                    << e.what();
    }
    settle();
  }

  int accepted_ = 0;
};

TEST_F(DataDispatch, MalformedDataIsDroppedAndValidDataStillDelivers) {
  const std::vector<uint8_t> good = valid_data();
  // Type byte, header with a three-entry cut, id, lamport, payload.
  ASSERT_EQ(good.size(), 1 + 20 + 4 + 12 * h_->hosts.size() + 12 + 8 + 4 + 2);

  // An empty packet has no type byte to dispatch on: dropped unlogged.
  const Snapshot before = snapshot();
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_EQ(feed({good.begin(), good.begin() + static_cast<ptrdiff_t>(len)}),
              len > 0);
    ASSERT_EQ(snapshot(), before) << "truncated to " << len << " bytes";
  }
  for (size_t at = 0; at < good.size(); ++at) {
    for (uint8_t mask : {0x01, 0x80, 0xff}) {
      std::vector<uint8_t> b = good;
      b[at] ^= mask;
      expect_dropped_or_well_formed(
          b, "flip " + std::to_string(mask) + " at " + std::to_string(at));
    }
  }
  std::mt19937_64 rng(2511);
  for (int i = 0; i < 200; ++i) {
    const size_t n = 2 + rng() % 7;
    const size_t at = rng() % (good.size() - n + 1);
    std::vector<uint8_t> b = good;
    for (size_t k = 0; k < n; ++k) b[at + k] = static_cast<uint8_t>(rng());
    expect_dropped_or_well_formed(
        b, "overwrite " + std::to_string(n) + "@" + std::to_string(at));
  }
  // Some variants were well formed (a flipped payload byte is), so the
  // check above has seen both outcomes.
  EXPECT_GT(accepted_, 0);

  // The valid packet still delivers, in full, once member 2 has been heard
  // past its timestamp (the next heartbeats carry that).
  const size_t had = h_->logs[0].delivered.size();
  EXPECT_FALSE(feed(good));
  ASSERT_TRUE(testutil::run_until(
      h_->sim, [&] { return h_->logs[0].delivered.size() > had; },
      sim::seconds(60)));
  const gcs::Delivered& d = h_->logs[0].delivered.back();
  EXPECT_EQ(d.sender, h_->hosts[1]);
  EXPECT_EQ(d.seq, 4u);
  EXPECT_EQ(d.payload, h_->payload_of(77));
}

}  // namespace
