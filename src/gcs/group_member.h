// GroupMember: one group-communication daemon (the Transis-daemon
// equivalent) running on a head node.
//
// Provides the process-group abstraction JOSHUA depends on:
//   * membership with join/leave/failure and view installation,
//   * reliable multicast (NACK-based retransmission), every message
//     delivered in one total order (Transis's AGREED service),
//   * extended-virtual-synchrony flush on every view change (all members
//     deliver the same message set in the same order before the new view),
//   * application state transfer to joining members.
//
// Membership protocol (coordinator-driven, fail-stop model):
//   - Heartbeat cuts every `heartbeat_interval`; a peer silent for
//     `suspect_timeout` is suspected.
//   - The lowest-id unsuspected member coordinates: it proposes a new view
//     (old members minus suspects/leavers plus joiners), collects from every
//     proposed member a flush ack carrying all messages it holds, multicasts
//     a commit with the union, and everyone delivers the union in total
//     order before installing the view.
//   - A coordinator that dies mid-flush is suspected via the flush timeout
//     and the next-lowest member re-proposes with a higher epoch.
//   - Partitions yield one view per network component (Transis-style
//     partitionable membership); `require_majority` optionally confines
//     views to a majority component.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "gcs/messages.h"
#include "gcs/ordering.h"
#include "gcs/ordering_engine.h"
#include "gcs/types.h"
#include "sim/process.h"
#include "telemetry/metrics.h"

namespace sim {
struct Calibration;
}

namespace gcs {

struct GroupConfig {
  std::string group_name = "group";
  sim::Port port = 7000;
  /// The potential-member universe (one entry per head node host).
  std::vector<sim::HostId> peers;

  sim::Duration heartbeat_interval = sim::msec(100);
  sim::Duration suspect_timeout = sim::msec(500);
  sim::Duration flush_timeout = sim::msec(1200);
  sim::Duration join_retry = sim::msec(250);
  sim::Duration nack_delay = sim::msec(15);
  sim::Duration state_retry = sim::msec(300);

  /// When non-empty, delivery metrics are additionally recorded under
  /// "gcs.<scope>.*" (per-shard order latency and delivered counts for the
  /// federation layer). Empty = the single-group default, no extra cells.
  std::string telemetry_scope;

  /// Only form views containing a strict majority of `peers` (primary
  /// component semantics). Off by default: the paper's deployment is a
  /// single hub where partitions do not occur.
  bool require_majority = false;

  /// Total-order engine (see ordering_engine.h).
  OrderingMode ordering = OrderingMode::kAllAck;
  /// Token-ring knobs; zero durations resolve against heartbeat_interval
  /// (idle cap = heartbeat, loss timeout = 4x heartbeat).
  sim::Duration token_idle = sim::msec(2);
  sim::Duration token_idle_cap = sim::kDurationZero;
  sim::Duration token_timeout = sim::kDurationZero;

  /// Ordering hot-path batch size. Token mode: stamps per announcement
  /// broadcast (a bigger backlog splits across several announcements in one
  /// hold). All-ack mode: data messages coalesced under one cumulative ack
  /// cut before it is forced out (a nack_delay timer bounds ack latency for
  /// partial batches). 0 or 1: the legacy per-message behavior the
  /// checked-in baselines gate.
  uint32_t order_batch = 0;
  /// Sender-side flow-control window: own multicasts in flight
  /// (sent, not yet ordered back to us). At the limit new sends queue
  /// locally (gcs.window_stalls counts them) instead of growing every
  /// receiver's unordered backlog. 0: unbounded, the legacy behavior.
  uint32_t inflight_window = 0;

  // CPU cost model (see sim::Calibration).
  sim::Duration send_proc = sim::msec(5);
  sim::Duration data_proc = sim::msec(38);
  sim::Duration ack_proc = sim::msec(36);
  sim::Duration hb_proc = sim::msec(1);
  sim::Duration ctrl_proc = sim::msec(2);
  sim::Duration self_deliver = sim::msec(3);
};

/// Build a GroupConfig cost section from the testbed calibration.
GroupConfig group_config_from(const sim::Calibration& cal);

struct GroupCallbacks {
  /// A new view was installed. An empty view means this member was excluded
  /// (it will attempt to rejoin only if the application calls join again).
  std::function<void(const View&)> on_view;
  /// An application message was delivered (in the same order at all
  /// members).
  std::function<void(const Delivered&)> on_deliver;
  /// State transfer: snapshot this member's application state (called on an
  /// existing member when someone joins).
  std::function<sim::Payload()> get_state;
  /// State transfer: install a snapshot (called on the joiner before any
  /// new-view message is delivered).
  std::function<void(const sim::Payload&)> install_state;
};

class GroupMember : public sim::Process {
 public:
  enum class State { kDown, kJoining, kMember, kFlushing };

  GroupMember(sim::Network& net, sim::HostId host, GroupConfig config,
              GroupCallbacks callbacks);

  /// Start the membership protocol (initial start or rejoin after crash).
  void join();

  /// Voluntarily leave. The paper handles leave as an announced shutdown;
  /// peers exclude the leaver without waiting for the failure detector.
  void leave();

  /// Multicast to the current view in total order. Buffers during a flush,
  /// per virtual synchrony. Must not be called when down. The Delivery
  /// argument has one value; it stays until jbench stops passing it.
  void multicast(sim::Payload payload, Delivery = Delivery::kAgreed);

  State state() const { return state_; }
  bool is_member() const {
    return state_ == State::kMember || state_ == State::kFlushing;
  }
  const View& view() const { return view_; }
  MemberId id() const { return host_id(); }
  const GroupConfig& config() const { return config_; }
  const OrderingEngine& engine() const { return *engine_; }
  /// The reliability and ordering state (watermarks, peer cuts, gaps).
  const OrderingBuffer& ordering() const { return buffer_; }
  /// Ids NACKed recently enough to suppress a repeat NACK.
  size_t nack_dedup_size() const { return nacked_.size(); }

  // -- statistics ------------------------------------------------------------
  /// Registry handles ("gcs.*", cells shared by every member in one
  /// simulation); a counter's count() is this member's own number.
  struct Telemetry {
    telemetry::Counter data_sent;
    telemetry::Counter data_received;
    telemetry::Counter nacks_sent;
    telemetry::Counter retransmits_served;
    telemetry::Counter delivered;
    telemetry::Counter views_installed;
    telemetry::Counter cuts_sent;
    telemetry::Counter cuts_received;  ///< no registry name: counts locally
    telemetry::Counter engine_msgs_sent;  ///< ordering-engine control messages
    telemetry::Counter token_rotations;
    telemetry::Counter window_stalls;  ///< sends queued at the send window
    telemetry::Gauge pipeline_depth;
    telemetry::Histogram order_latency;
    telemetry::Histogram token_hold;
    telemetry::Histogram batch_size;
    /// Scoped duplicates ("gcs.<telemetry_scope>.*"); null cells when the
    /// scope is empty, so recording them is a no-op outside federations.
    telemetry::Counter scope_delivered;
    telemetry::Histogram scope_order_latency;
  };
  const Telemetry& stats() const { return m_; }
  /// Own multicasts currently in flight (flow-control debt).
  uint32_t inflight() const { return inflight_; }

  // sim::Process:
  void on_packet(sim::Packet packet) override;
  void on_crash() override;
  void on_restart() override;

 private:
  // -- send helpers -----------------------------------------------------------
  /// The header of a message sent now: out_header() for one encoded at
  /// once, make_header() for one kept as a value.
  OutHeader out_header() const;
  Header make_header() const;
  /// Install `view` as view_ and rebuild others_ from it.
  void set_view(View view);
  void cast_to_members(sim::Payload buf);
  void cast_to_peers(sim::Payload buf);

  // -- receive handlers (already CPU-charged) ---------------------------------
  void handle_data(DataWire m);
  void handle_cut(const CutWireView& m);
  void handle_nack(NackWire m);
  void handle_retransmit(RetransmitWire m);
  void handle_join_req(JoinReqWire m);
  void handle_leave(LeaveWire m);
  void handle_vc_propose(VcProposeWire m, sim::Endpoint from);
  void handle_vc_ack(VcAckWire m);
  void handle_vc_commit(VcCommitWire m);
  void handle_state_req(StateReqWire m, sim::Endpoint from);
  void handle_state(StateWire m);
  void handle_engine(EngineWire m);

  /// Transmit/record whatever an engine hook asked for.
  void apply_engine(EngineOut out);

  // -- protocol actions --------------------------------------------------------
  void tick_lamport(uint64_t seen) { lamport_ = std::max(lamport_, seen) + 1; }
  void note_alive(MemberId peer);
  void deliver_ready();
  void deliver_to_app(const DataMsg& m);
  void do_multicast(sim::Payload payload);
  void release_window();
  void schedule_ack_cut();
  void flush_ack_cut();
  void send_cut(bool periodic);
  void check_gaps();
  void heartbeat_tick();
  void suspect_check();
  void maybe_coordinate();
  void begin_flush(std::vector<MemberId> membership);
  void flush_timeout_fired();
  void complete_flush();
  void install_view(const VcCommitWire& commit);
  void retain(const DataMsg& m);
  void prune_retained();
  void join_tick();
  void become_down();
  void request_state();

  GroupConfig config_;
  GroupCallbacks callbacks_;
  State state_ = State::kDown;

  // Ordering & reliability.
  OrderingBuffer buffer_;
  std::unique_ptr<OrderingEngine> engine_;  ///< attached to buffer_
  uint64_t lamport_ = 0;
  uint64_t my_seq_ = 0;
  std::map<MsgId, DataMsg> retained_;  ///< current-view messages for flush
  std::map<MsgId, sim::Time> nacked_;  ///< dedup recent NACKs

  // Membership.
  View view_;
  std::vector<sim::HostId> others_;  ///< view_.members without this member
  uint64_t max_epoch_ = 0;
  std::vector<sim::Time> last_heard_;  ///< by view rank
  std::set<MemberId> suspected_;
  std::set<MemberId> joiners_;   ///< join requests seen (incl. self when joining)
  std::set<MemberId> leavers_;

  // Flush state (coordinator and participant).
  std::optional<ViewId> flush_proposed_;
  std::vector<MemberId> flush_membership_;   // coordinator only
  std::map<MemberId, VcAckWire> flush_acks_; // coordinator only
  bool flush_coordinator_ = false;
  sim::TimerId flush_timer_ = 0;
  std::deque<sim::Payload> pending_sends_;

  // Sender flow control (config_.inflight_window > 0): own multicasts in
  // flight, and sends queued while the window is full. The window drains as
  // our own messages come back ordered (deliver_to_app); a view change
  // resets the debt -- the flush delivered or dropped every in-flight
  // message identically everywhere.
  uint32_t inflight_ = 0;
  std::deque<sim::Payload> window_queue_;

  // Cumulative-ack coalescing (all-ack engine, config_.order_batch > 1):
  // data messages heard since our last cut; an ack cut goes out when a
  // batch fills or the ack timer (nack_delay) fires, whichever is first.
  uint32_t unacked_data_ = 0;
  sim::TimerId ack_timer_ = 0;

  // Joiner state transfer.
  bool awaiting_state_ = false;
  MemberId state_source_ = sim::kInvalidHost;
  std::vector<MemberId> old_members_for_state_;  ///< fallback state sources
  std::deque<Delivered> held_deliveries_;
  sim::TimerId state_timer_ = 0;
  std::optional<sim::Payload> cached_state_;  ///< snapshot for joiners

  // Timers.
  sim::TimerId hb_timer_ = 0;
  sim::TimerId join_timer_ = 0;
  int join_ticks_ = 0;
  int merge_tick_ = 0;

  bool cut_scheduled_ = false;
  Telemetry m_;  ///< registered in the ctor body
  uint16_t tc_view_ = 0;   ///< trace category "gcs.view"
  uint16_t tc_flush_ = 0;  ///< trace category "gcs.flush"
  /// Start of the flush this member is currently in, or -1 (for the
  /// "gcs.flush" complete-span emitted when the new view installs).
  int64_t flush_started_us_ = -1;
  /// Send timestamps of our own recent multicasts, keyed by seq & 63 --
  /// fixed cost, approximate beyond 64 outstanding messages. Matched in
  /// deliver_to_app to measure multicast -> total-order-delivery latency.
  std::array<std::pair<uint64_t, int64_t>, 64> order_inflight_{};
};

}  // namespace gcs
