// Seeded robustness test over every wire message type, through the one
// generic entry point (net::encode / net::decode).
//
//   * Random valid instances round-trip: decode(encode(x)) == x. The
//     instances come from each type's own field list, so a new field is
//     covered without touching this file.
//   * Every truncation, a sweep of byte flips, and seeded multi-byte
//     mutations (2-8 byte overwrites, duplicated and deleted spans) of each
//     sample encoding either decode or throw net::WireError -- never
//     anything else.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "codec/samples.h"
#include "gcs/engine_token.h"
#include "pbs/server.h"
#include "sim/calibration.h"
#include "testutil.h"

namespace {

namespace s = codec_samples;

/// Fills a value with random contents by running its field list.
class Randomizer {
 public:
  explicit Randomizer(std::mt19937_64& rng) : rng_(rng) {}

  template <class... Ts>
  void operator()(Ts&&... values) {
    (fill(values), ...);
  }
  template <class E>
  void tag(E) {}

  template <class T>
  void fill(T& v) {
    namespace d = net::detail;
    if constexpr (std::is_same_v<T, bool>) {
      v = (rng_() & 1) != 0;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(static_cast<uint8_t>(rng_()));
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(rng_());
    } else if constexpr (d::kIsTime<T>) {
      v = T{static_cast<int64_t>(rng_())};
    } else if constexpr (std::is_same_v<T, std::string>) {
      v.resize(rng_() % 7);
      for (char& c : v) c = static_cast<char>(rng_());
    } else if constexpr (std::is_same_v<T, sim::Payload>) {
      std::vector<uint8_t> bytes(rng_() % 7);
      for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng_());
      v = sim::Payload(bytes.begin(), bytes.end());
    } else if constexpr (d::IsPair<T>::value) {
      fill(v.first);
      fill(v.second);
    } else if constexpr (d::IsVector<T>::value) {
      v.resize(rng_() % 4);
      for (auto& item : v) fill(item);
    } else if constexpr (d::IsMap<T>::value) {
      v.clear();
      for (size_t n = rng_() % 4; n > 0; --n) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        fill(key);
        fill(value);
        v.insert_or_assign(key, std::move(value));
      }
    } else if constexpr (d::IsKeyed<T>::value) {
      v.map.clear();
      for (size_t n = rng_() % 4; n > 0; --n) {
        typename std::remove_reference_t<decltype(v.map)>::mapped_type
            value{};
        fill(value);
        auto key = value.*v.key;
        v.map.insert_or_assign(key, std::move(value));
      }
    } else {
      fields(*this, v);
    }
  }

 private:
  std::mt19937_64& rng_;
};

/// One message type: a random round trip, and a decoder for mutated bytes.
struct Case {
  std::string name;
  sim::Payload sample;  ///< the sample instance's encoding
  std::function<bool(std::mt19937_64&)> round_trips;
  std::function<void(const sim::Payload&)> decode;
};

template <class T>
Case make_case(const char* name, const T& sample) {
  return {name, net::encode(sample),
          [](std::mt19937_64& rng) {
            T x{};
            Randomizer(rng).fill(x);
            return net::decode<T>(net::encode(x)) == x;
          },
          [](const sim::Payload& bytes) { (void)net::decode<T>(bytes); }};
}

std::vector<Case> all_cases() {
  using namespace gcs::token;
  pbs::ServerState state{3, 3, 2, {{17, s::job()}}};
  return {
      make_case("gcs.data", s::data_wire()),
      make_case("gcs.cut", s::cut_wire(true)),
      make_case("gcs.nack", s::nack_wire()),
      make_case("gcs.retransmit", s::retransmit_wire()),
      make_case("gcs.join_req", s::join_req_wire()),
      make_case("gcs.leave", s::leave_wire()),
      make_case("gcs.vc_propose", s::vc_propose_wire()),
      make_case("gcs.vc_ack", s::vc_ack_wire()),
      make_case("gcs.vc_commit", s::vc_commit_wire()),
      make_case("gcs.state_req", s::state_req_wire()),
      make_case("gcs.state", s::state_wire()),
      make_case("gcs.engine", s::engine_wire()),
      make_case("pbs.submit", s::submit_request()),
      make_case("pbs.stat", s::stat_request()),
      make_case("pbs.stat_quiet", s::quiet_stat_request()),
      make_case("pbs.delete", pbs::DeleteRequest{7}),
      make_case("pbs.signal", pbs::SignalRequest{8, -9}),
      make_case("pbs.hold", pbs::HoldRequest{3}),
      make_case("pbs.release", pbs::ReleaseRequest{4}),
      make_case("pbs.preempt", pbs::PreemptRequest{6}),
      make_case("pbs.dump_state", pbs::DumpStateRequest{}),
      make_case("pbs.load_state", pbs::LoadStateRequest{{1, 2, 3}}),
      make_case("pbs.mom_launch", s::mom_launch_request()),
      make_case("pbs.mom_kill", pbs::MomKillRequest{17, 2, true}),
      make_case("pbs.mom_emu_complete", pbs::MomEmuCompleteRequest{17, -3}),
      make_case("pbs.mom_ping", pbs::MomPingRequest{2, 99}),
      make_case("pbs.job_report", s::job_report()),
      make_case("pbs.submit_response",
                pbs::SubmitResponse{pbs::Status::kOk, 42, 3}),
      make_case("pbs.stat_response", s::stat_response()),
      make_case("pbs.simple_response",
                pbs::SimpleResponse{pbs::Status::kUnknownJob}),
      make_case("pbs.dump_state_response",
                pbs::DumpStateResponse{pbs::Status::kOk, {4, 5}}),
      make_case("pbs.mom_launch_response",
                pbs::MomLaunchResponse{pbs::Status::kOk, true}),
      make_case("pbs.mom_ping_response",
                pbs::MomPingResponse{pbs::Status::kServerBusy, 99, 2}),
      make_case("pbs.state", state),
      make_case("rsm.command", s::command()),
      make_case("joshua.mutex_req", joshua::GroupMutexReq{42, 7, 31, 2}),
      make_case("joshua.mutex_done", joshua::GroupMutexDone{42, -271, 7, 31}),
      make_case("joshua.mutex_revoke", joshua::GroupMutexRevoke{31}),
      make_case("joshua.preempt", joshua::GroupPreempt{42}),
      make_case("joshua.jmutex", joshua::JMutexRequest{11, 2, 31, 3}),
      make_case("joshua.jdone", joshua::JDoneRequest{11, -5, 31}),
      make_case("joshua.jmutex_response", joshua::JMutexResponse{true}),
      make_case("joshua.command_log", s::command_log()),
      make_case("joshua.mutex_table", s::mutex_table()),
      make_case("joshua.transfer", s::transfer_envelope()),
      make_case("pvfs.request", s::md_request()),
      make_case("pvfs.response", s::md_response()),
      make_case("token.pass", Pass{3, 1, 1, 2}),
      make_case("token.stamps", Stamps{3, 1, 1, {{1, 5}, {2, 7}}}),
      make_case("token.stamp_nack", StampNack{3, 1}),
      make_case("token.regen_query", RegenQuery{3, 2}),
      make_case("token.regen_reply", RegenReply{3, 2, 2}),
      make_case("token.table", StampTable{3, {{1, {{1, 5}, 1}}}}),
  };
}

/// Runs `decode` on `bytes`; a failure other than net::WireError fails the
/// test.
void expect_decodes_or_wire_error(const Case& c, const sim::Payload& bytes,
                                  const std::string& what) {
  try {
    c.decode(bytes);
  } catch (const net::WireError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << c.name << " " << what << ": " << e.what();
  }
}

sim::Payload flipped(const sim::Payload& p, size_t at, uint8_t mask) {
  std::vector<uint8_t> bytes(p.begin(), p.end());
  bytes[at] ^= mask;
  return sim::Payload(bytes.begin(), bytes.end());
}

TEST(WireRobustness, RandomInstancesRoundTrip) {
  std::mt19937_64 rng(1601);
  for (const Case& c : all_cases()) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(c.round_trips(rng)) << c.name << " instance " << i;
    }
  }
}

TEST(WireRobustness, TruncationsThrowWireError) {
  for (const Case& c : all_cases()) {
    for (size_t n = 0; n < c.sample.size(); ++n) {
      std::string what = "truncated to " + std::to_string(n);
      bool threw = false;
      try {
        c.decode(c.sample.slice(0, n));
      } catch (const net::WireError&) {
        threw = true;
      } catch (const std::exception& e) {
        ADD_FAILURE() << c.name << " " << what << ": " << e.what();
        threw = true;
      }
      EXPECT_TRUE(threw) << c.name << " " << what << " decoded";
    }
    std::vector<uint8_t> longer(c.sample.begin(), c.sample.end());
    longer.push_back(0);
    EXPECT_THROW(c.decode(sim::Payload(longer.begin(), longer.end())),
                 net::WireError)
        << c.name << ": trailing byte accepted";
  }
}

TEST(WireRobustness, ByteFlipsDecodeOrThrowWireError) {
  std::mt19937_64 rng(1602);
  for (const Case& c : all_cases()) {
    // Every position with a few fixed masks, then random masks.
    for (size_t at = 0; at < c.sample.size(); ++at) {
      for (uint8_t mask : {0x01, 0x80, 0xff}) {
        expect_decodes_or_wire_error(c, flipped(c.sample, at, mask),
                                     "flip at " + std::to_string(at));
      }
    }
    for (int i = 0; i < 1000 && !c.sample.empty(); ++i) {
      size_t at = rng() % c.sample.size();
      auto mask = static_cast<uint8_t>(rng() | 1);
      expect_decodes_or_wire_error(c, flipped(c.sample, at, mask),
                                   "random flip at " + std::to_string(at));
    }
  }
}

/// A copy of `p` with bytes [at, at + n) replaced by `with`.
sim::Payload spliced(const sim::Payload& p, size_t at, size_t n,
                     const std::vector<uint8_t>& with) {
  std::vector<uint8_t> bytes(p.begin(), p.end());
  bytes.erase(bytes.begin() + static_cast<ptrdiff_t>(at),
              bytes.begin() + static_cast<ptrdiff_t>(at + n));
  bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at), with.begin(),
               with.end());
  return sim::Payload(bytes.begin(), bytes.end());
}

TEST(WireRobustness, MultiByteMutationsDecodeOrThrowWireError) {
  std::mt19937_64 rng(1603);
  for (const Case& c : all_cases()) {
    const size_t size = c.sample.size();
    if (size < 2) continue;
    for (int i = 0; i < 100; ++i) {
      // Overwrite 2-8 consecutive bytes with random ones.
      size_t n = std::min<size_t>(2 + rng() % 7, size);
      size_t at = rng() % (size - n + 1);
      std::vector<uint8_t> junk(n);
      for (uint8_t& b : junk) b = static_cast<uint8_t>(rng());
      expect_decodes_or_wire_error(c, spliced(c.sample, at, n, junk),
                                   "overwrite " + std::to_string(n) + "@" +
                                       std::to_string(at));
      // Duplicate, then delete, a random span.
      n = 1 + rng() % std::min<size_t>(size, 16);
      at = rng() % (size - n + 1);
      std::vector<uint8_t> twice;
      for (int copy = 0; copy < 2; ++copy)
        twice.insert(twice.end(), c.sample.begin() + static_cast<ptrdiff_t>(at),
                     c.sample.begin() + static_cast<ptrdiff_t>(at + n));
      expect_decodes_or_wire_error(c, spliced(c.sample, at, n, twice),
                                   "duplicate " + std::to_string(n) + "@" +
                                       std::to_string(at));
      expect_decodes_or_wire_error(c, spliced(c.sample, at, n, {}),
                                   "delete " + std::to_string(n) + "@" +
                                       std::to_string(at));
    }
  }
}

/// The quiet stat reaches PBS from a head's own interceptor, never from a
/// client, but the server must still survive any bytes under its op:
/// every truncation, byte flip and multi-byte mutation is answered or
/// dropped, and the server answers a well-formed quiet stat afterwards.
TEST(WireRobustness, QuietStatMutationsReachPbsServerSafely) {
  sim::Simulation sim(1604);
  sim::Network net(sim, sim::fast_calibration().network);
  sim::HostId head = net.add_host("head").id();
  sim::HostId login = net.add_host("login").id();
  pbs::ServerConfig cfg = pbs::server_config_from(sim::fast_calibration());
  pbs::Server server(net, head, cfg);
  testutil::RawCaller caller(net, login, 24000);
  const sim::Endpoint pbs_at{head, cfg.port};

  const sim::Payload sample = net::encode(s::quiet_stat_request());
  std::vector<sim::Payload> inputs;
  for (size_t n = 1; n < sample.size(); ++n) inputs.push_back(sample.slice(0, n));
  std::mt19937_64 rng(1605);
  for (size_t at = 1; at < sample.size(); ++at) {
    for (uint8_t mask : {0x01, 0x80, 0xff})
      inputs.push_back(flipped(sample, at, mask));
  }
  for (int i = 0; i < 200; ++i) {
    size_t n = 2 + rng() % 7;
    size_t at = 1 + rng() % (sample.size() - n);
    std::vector<uint8_t> junk(n);
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng());
    inputs.push_back(spliced(sample, at, n, junk));
    inputs.push_back(spliced(sample, 1 + rng() % (sample.size() - 1), 1, {}));
  }
  // Each request costs a stat's CPU and they queue: wait for them all.
  net::CallOptions patient;
  patient.timeout = sim::seconds(3600);
  size_t answered = 0;
  for (const sim::Payload& bytes : inputs) {
    caller.call(pbs_at, bytes, [&](std::optional<sim::Payload> r) {
      if (r.has_value()) ++answered;
    }, patient);
  }
  sim.run_for(sim::seconds(3600));
  EXPECT_EQ(answered, inputs.size()) << "every quiet-op request is answered";

  std::optional<sim::Payload> answer;
  caller.call(pbs_at, sample,
              [&](std::optional<sim::Payload> r) { answer = std::move(r); });
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(net::decode<pbs::SimpleResponse>(*answer).status,
            pbs::Status::kUnknownJob)
      << "job 5 is not in the empty table";
}

/// The PVFS snapshot's layout is private to the server; install() is its
/// decoder, and it must reject mutated snapshots the same way.
TEST(WireRobustness, PvfsSnapshotMutations) {
  pvfs::MetadataServer server;
  s::populate(server);
  sim::Payload snapshot = server.snapshot();
  Case c{"pvfs.snapshot", snapshot, nullptr, [](const sim::Payload& bytes) {
           pvfs::MetadataServer copy;
           copy.install(bytes);
         }};
  for (size_t n = 0; n < snapshot.size(); ++n) {
    EXPECT_THROW(c.decode(snapshot.slice(0, n)), net::WireError);
  }
  for (size_t at = 0; at < snapshot.size(); ++at) {
    expect_decodes_or_wire_error(c, flipped(snapshot, at, 0xff),
                                 "flip at " + std::to_string(at));
  }
}

}  // namespace
