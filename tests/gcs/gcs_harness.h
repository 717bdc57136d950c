// Harness for protocol-level gcs tests: N group members on N hosts with a
// fast calibration, per-member delivery/view logs, and a tiny replicated
// application (an append log) for state-transfer coverage.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gcs/group_member.h"
#include "net/wire.h"
#include "sim/calibration.h"
#include "sim/failure.h"
#include "testutil.h"

namespace gcstest {

struct MemberLog {
  std::vector<gcs::Delivered> delivered;
  std::vector<gcs::View> views;
  /// Replicated toy application: every delivered payload appends here;
  /// state transfer copies the whole log.
  std::vector<sim::Payload> app_log;
};

class GcsHarness {
 public:
  explicit GcsHarness(int n, uint64_t seed = 1,
                      std::function<void(gcs::GroupConfig&)> tweak = nullptr)
      : sim(seed), net(sim, sim::fast_calibration().network), faults(net) {
    for (int i = 0; i < n; ++i) hosts.push_back(net.add_host("h" + std::to_string(i)).id());
    logs.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      gcs::GroupConfig cfg = gcs::group_config_from(sim::fast_calibration());
      cfg.port = 7000;
      cfg.peers = hosts;
      cfg.heartbeat_interval = sim::msec(50);
      cfg.suspect_timeout = sim::msec(250);
      cfg.flush_timeout = sim::msec(500);
      cfg.join_retry = sim::msec(100);
      if (tweak) tweak(cfg);
      size_t idx = static_cast<size_t>(i);
      gcs::GroupCallbacks cb;
      cb.on_view = [this, idx](const gcs::View& v) {
        logs[idx].views.push_back(v);
      };
      cb.on_deliver = [this, idx](const gcs::Delivered& d) {
        logs[idx].delivered.push_back(d);
        logs[idx].app_log.push_back(d.payload);
      };
      cb.get_state = [this, idx] { return net::encode(logs[idx].app_log); };
      cb.install_state = [this, idx](const sim::Payload& state) {
        net::decode(state, logs[idx].app_log);
      };
      members.push_back(std::make_unique<gcs::GroupMember>(
          net, hosts[static_cast<size_t>(i)], cfg, cb));
    }
  }

  void join_all() {
    for (auto& m : members) m->join();
  }

  /// True when every up member is in the same view of size `n`.
  bool converged(size_t n) const {
    const gcs::View* ref = nullptr;
    size_t live = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      if (!net.host(hosts[i]).up()) continue;
      if (members[i]->state() == gcs::GroupMember::State::kDown) continue;
      if (members[i]->state() != gcs::GroupMember::State::kMember) return false;
      ++live;
      if (!ref) {
        ref = &members[i]->view();
      } else if (members[i]->view().id != ref->id) {
        return false;
      }
    }
    return ref != nullptr && ref->size() == n && live >= n;
  }

  bool run_until_converged(size_t n, sim::Duration deadline = sim::seconds(30)) {
    return testutil::run_until(sim, [&] { return converged(n); }, deadline);
  }

  /// AGREED-delivery sequences of two members must be consistent: equal on
  /// the common prefix (one may lag).
  static bool prefix_consistent(const std::vector<gcs::Delivered>& a,
                                const std::vector<gcs::Delivered>& b) {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (a[i].sender != b[i].sender || a[i].seq != b[i].seq) return false;
    }
    return true;
  }

  /// Per-sender delivery must be gap-free and duplicate-free.
  static bool fifo_clean(const std::vector<gcs::Delivered>& log) {
    std::map<gcs::MemberId, uint64_t> last;
    for (const gcs::Delivered& d : log) {
      if (d.seq != last[d.sender] + 1) return false;
      last[d.sender] = d.seq;
    }
    return true;
  }

  sim::Payload payload_of(int v) {
    return sim::Payload{static_cast<uint8_t>(v & 0xff),
                        static_cast<uint8_t>((v >> 8) & 0xff)};
  }

  sim::Simulation sim;
  sim::Network net;
  sim::FailureInjector faults;
  std::vector<sim::HostId> hosts;
  std::vector<std::unique_ptr<gcs::GroupMember>> members;
  std::vector<MemberLog> logs;
};

}  // namespace gcstest
