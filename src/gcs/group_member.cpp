#include "gcs/group_member.h"

#include <algorithm>
#include <stdexcept>

#include "sim/calibration.h"
#include "util/logging.h"

namespace gcs {

namespace {
constexpr int kJoinSettleTicks = 2;
constexpr int kMergeBeaconEvery = 10;  // heartbeat ticks between merge beacons

std::vector<MemberId> sorted(std::set<MemberId> s) {
  return {s.begin(), s.end()};
}
}  // namespace

GroupConfig group_config_from(const sim::Calibration& cal) {
  GroupConfig cfg;
  cfg.send_proc = cal.gcs_send_proc;
  cfg.data_proc = cal.gcs_data_proc;
  cfg.ack_proc = cal.gcs_ack_proc;
  cfg.self_deliver = cal.gcs_self_deliver;
  return cfg;
}

GroupMember::GroupMember(sim::Network& net, sim::HostId host,
                         GroupConfig config, GroupCallbacks callbacks)
    : sim::Process(net, host, config.port,
                   config.group_name + "@" + net.host(host).name()),
      config_(std::move(config)),
      callbacks_(std::move(callbacks)) {
  if (std::find(config_.peers.begin(), config_.peers.end(), host) ==
      config_.peers.end()) {
    throw std::invalid_argument("GroupMember: host not in peer universe");
  }
  telemetry::Hub& hub = net.sim().telemetry();
  telemetry::Registry& m = hub.metrics();
  m_.data_sent = m.counter("gcs.data_sent");
  m_.data_received = m.counter("gcs.data_received");
  m_.nacks_sent = m.counter("gcs.nacks_sent");
  m_.retransmits_served = m.counter("gcs.retransmits_served");
  m_.delivered = m.counter("gcs.delivered");
  m_.views_installed = m.counter("gcs.views_installed");
  m_.cuts_sent = m.counter("gcs.cuts_sent");
  m_.engine_msgs_sent = m.counter("gcs.engine_msgs_sent");
  m_.token_rotations = m.counter("gcs.token.rotations");
  m_.window_stalls = m.counter("gcs.window_stalls");
  m_.pipeline_depth = m.gauge("gcs.pipeline_depth");
  m_.order_latency = m.histogram("gcs.order_latency_us");
  m_.token_hold = m.histogram("gcs.token.hold_us");
  m_.batch_size = m.histogram("gcs.batch_size");
  if (!config_.telemetry_scope.empty()) {
    m_.scope_delivered =
        m.counter("gcs." + config_.telemetry_scope + ".delivered");
    m_.scope_order_latency =
        m.histogram("gcs." + config_.telemetry_scope + ".order_latency_us");
  }
  tc_view_ = hub.trace().intern("gcs.view");
  tc_flush_ = hub.trace().intern("gcs.flush");

  EngineTuning tuning;
  tuning.token_idle = config_.token_idle;
  tuning.token_idle_cap = config_.token_idle_cap.us > 0
                              ? config_.token_idle_cap
                              : config_.heartbeat_interval;
  tuning.token_timeout = config_.token_timeout.us > 0
                             ? config_.token_timeout
                             : config_.heartbeat_interval * 4;
  tuning.max_batch = config_.order_batch;
  engine_ = make_engine(config_.ordering, tuning);
  buffer_.attach_engine(engine_.get());
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void GroupMember::join() {
  if (!host_up()) return;
  if (state_ != State::kDown) return;
  state_ = State::kJoining;
  join_ticks_ = 0;
  joiners_.clear();
  joiners_.insert(id());
  JLOG(kInfo, "gcs") << name() << " joining";
  join_timer_ = set_timer(sim::usec(1), [this] { join_tick(); });
  if (hb_timer_ == 0)
    hb_timer_ = set_timer(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void GroupMember::leave() {
  if (state_ == State::kDown) return;
  JLOG(kInfo, "gcs") << name() << " leaving";
  if (is_member() && view_.size() > 1) {
    LeaveWire m{make_header()};
    cast_to_members(net::encode(m));
  }
  become_down();
}

void GroupMember::multicast(sim::Payload payload, Delivery) {
  if (state_ == State::kDown)
    throw std::logic_error("GroupMember::multicast while down");
  if (state_ != State::kMember) {
    // Virtual synchrony: no new messages enter a view mid-flush; they go out
    // in the next view.
    pending_sends_.push_back(std::move(payload));
    return;
  }
  if (config_.inflight_window > 0 &&
      (inflight_ >= config_.inflight_window || !window_queue_.empty())) {
    // Flow control: the window of own unordered sends is full (or earlier
    // sends already wait behind it -- per-sender FIFO must hold). Queue
    // locally instead of growing every receiver's unordered backlog; the
    // window reopens as our own messages come back ordered.
    m_.window_stalls.add(1);
    window_queue_.push_back(std::move(payload));
    return;
  }
  ++inflight_;
  m_.pipeline_depth.set(inflight_);
  do_multicast(std::move(payload));
}

void GroupMember::do_multicast(sim::Payload payload) {
  DataMsg msg;
  msg.id = MsgId{id(), ++my_seq_};
  msg.lamport = ++lamport_;
  msg.payload = std::move(payload);
  retain(msg);
  buffer_.insert(msg);
  buffer_.observe(id(), lamport_, my_seq_, buffer_.received_vector());
  m_.data_sent.add(1);
  order_inflight_[msg.id.seq & 63] = {msg.id.seq, sim().now().us};
  apply_engine(engine_->on_local_send(msg, sim().now().us));

  if (view_.size() == 1) {
    execute(config_.self_deliver, [this] { deliver_ready(); });
    return;
  }
  sim::Payload buf =
      net::encode(BasicDataWire<const CutVector&>{out_header(), std::move(msg)});
  execute(config_.send_proc, [this, buf = std::move(buf)] {
    cast_to_members(buf);
    deliver_ready();
  });
}

void GroupMember::release_window() {
  while (state_ == State::kMember && !window_queue_.empty() &&
         inflight_ < config_.inflight_window) {
    sim::Payload payload = std::move(window_queue_.front());
    window_queue_.pop_front();
    ++inflight_;
    m_.pipeline_depth.set(inflight_);
    do_multicast(std::move(payload));
  }
}

// ---------------------------------------------------------------------------
// Send helpers
// ---------------------------------------------------------------------------

OutHeader GroupMember::out_header() const {
  return OutHeader{id(), lamport_, my_seq_, buffer_.received_vector()};
}

Header GroupMember::make_header() const {
  return Header{id(), lamport_, my_seq_, buffer_.received_vector()};
}

void GroupMember::set_view(View view) {
  view_ = std::move(view);
  others_.clear();
  for (MemberId m : view_.members)
    if (m != id()) others_.push_back(m);
}

void GroupMember::cast_to_members(sim::Payload buf) {
  Process::multicast(config_.port, std::move(buf), others_);
}

void GroupMember::cast_to_peers(sim::Payload buf) {
  std::vector<sim::HostId> others;
  for (sim::HostId p : config_.peers)
    if (p != id()) others.push_back(p);
  Process::multicast(config_.port, std::move(buf), others);
}

// ---------------------------------------------------------------------------
// Packet dispatch (charges the CPU cost model, then decodes and handles)
// ---------------------------------------------------------------------------

void GroupMember::on_packet(sim::Packet packet) {
  if (state_ == State::kDown) return;
  MsgType type;
  try {
    type = net::peek_tag<MsgType>(packet.data);
  } catch (const net::WireError&) {
    return;
  }
  sim::Duration cost;
  switch (type) {
    case MsgType::kData: cost = config_.data_proc; break;
    case MsgType::kCut:
      cost = cut_is_periodic(packet.data) ? config_.hb_proc : config_.ack_proc;
      break;
    case MsgType::kRetransmit: cost = config_.data_proc; break;
    case MsgType::kVcAck:
    case MsgType::kVcCommit: cost = config_.ctrl_proc * 2; break;
    // Engine control (token pass, stamp announce) is control-plane work
    // like any other small packet. Engine comparisons that want equal
    // per-packet pricing set ctrl_proc ~ ack_proc (see bench_ordering).
    case MsgType::kEngine: cost = config_.ctrl_proc; break;
    default: cost = config_.ctrl_proc; break;
  }
  execute(cost, [this, data = std::move(packet.data), src = packet.src,
                 type] {
    if (state_ == State::kDown) return;
    try {
      switch (type) {
        case MsgType::kData:
          handle_data(net::decode<DataWire>(data));
          break;
        case MsgType::kCut:
          // The commonest packet (one per member per data message under
          // all-ack): validated whole, then merged from the packet bytes.
          handle_cut(net::decode<CutWireView>(data));
          break;
        case MsgType::kNack:
          handle_nack(net::decode<NackWire>(data));
          break;
        case MsgType::kRetransmit:
          handle_retransmit(net::decode<RetransmitWire>(data));
          break;
        case MsgType::kJoinReq:
          handle_join_req(net::decode<JoinReqWire>(data));
          break;
        case MsgType::kLeave:
          handle_leave(net::decode<LeaveWire>(data));
          break;
        case MsgType::kVcPropose:
          handle_vc_propose(net::decode<VcProposeWire>(data), src);
          break;
        case MsgType::kVcAck:
          handle_vc_ack(net::decode<VcAckWire>(data));
          break;
        case MsgType::kVcCommit:
          handle_vc_commit(net::decode<VcCommitWire>(data));
          break;
        case MsgType::kStateReq:
          handle_state_req(net::decode<StateReqWire>(data), src);
          break;
        case MsgType::kState:
          handle_state(net::decode<StateWire>(data));
          break;
        case MsgType::kEngine:
          handle_engine(net::decode<EngineWire>(data));
          break;
      }
    } catch (const net::WireError& e) {
      JLOG(kWarn, "gcs") << name() << ": malformed message: " << e.what();
    }
  });
}

// ---------------------------------------------------------------------------
// Data / ordering path
// ---------------------------------------------------------------------------

void GroupMember::note_alive(MemberId peer) {
  // Only members are watched; install_view restarts every member's clock,
  // so hearing from a non-member (a joiner, a merge beacon) needs no record.
  int r = view_.rank(peer);
  if (r < 0) return;
  last_heard_[r] = sim().now();
  if (state_ == State::kMember) suspected_.erase(peer);
}

void GroupMember::handle_data(DataWire m) {
  if (!is_member() || !view_.contains(m.header.from)) return;
  if (m.msg.id.sender != m.header.from) return;  // a member sends its own
  m_.data_received.add(1);
  note_alive(m.header.from);
  tick_lamport(m.msg.lamport);
  buffer_.observe(m.header.from, m.header.lamport, m.header.sent_upto,
                  m.header.received);
  if (buffer_.insert(m.msg)) {
    retain(m.msg);
    apply_engine(engine_->on_insert(m.msg, sim().now().us));
  }
  // Ack before handing anything to the application so the sender's
  // delivery condition fires as soon as the protocol -- not the app -- is
  // done; coalesced while the CPU is busy with a burst, and batched under
  // one cumulative cut when order_batch > 1. Token mode skips these
  // reactive cuts entirely (the stamp is the delivery evidence).
  if (engine_->wants_ack_cuts()) schedule_ack_cut();
  deliver_ready();
  check_gaps();
}

void GroupMember::handle_cut(const CutWireView& m) {
  if (!is_member() || !view_.contains(m.header.from)) return;
  m_.cuts_received.add(1);
  note_alive(m.header.from);
  tick_lamport(m.header.lamport);
  buffer_.observe_in_place(m.header.from, m.header.lamport,
                           m.header.sent_upto, m.header.received);
  deliver_ready();
  prune_retained();
  check_gaps();
}

void GroupMember::handle_nack(NackWire m) {
  note_alive(m.header.from);
  RetransmitWire reply;
  for (const MsgId& missing : m.missing) {
    auto it = retained_.find(missing);
    if (it != retained_.end()) reply.msgs.push_back(it->second);
  }
  if (reply.msgs.empty()) return;
  m_.retransmits_served.add(1);
  reply.header = make_header();
  sim::Payload buf = net::encode(reply);
  sim::Endpoint dst{m.header.from, config_.port};
  execute(config_.send_proc,
          [this, buf = std::move(buf), dst] { send(dst, buf); });
}

void GroupMember::handle_retransmit(RetransmitWire m) {
  if (!is_member()) return;
  note_alive(m.header.from);
  // A non-member's header describes a stream outside the view: its claims
  // must not seed gaps (NACKs for messages this handler then discards).
  if (view_.contains(m.header.from))
    buffer_.observe(m.header.from, m.header.lamport, m.header.sent_upto,
                    m.header.received);
  for (const DataMsg& msg : m.msgs) {
    if (!view_.contains(msg.id.sender)) continue;
    tick_lamport(msg.lamport);
    if (buffer_.insert(msg)) {
      retain(msg);
      apply_engine(engine_->on_insert(msg, sim().now().us));
    }
  }
  deliver_ready();
  check_gaps();
}

void GroupMember::deliver_ready() {
  for (const DataMsg& m : buffer_.drain()) deliver_to_app(m);
}

void GroupMember::deliver_to_app(const DataMsg& m) {
  m_.delivered.add(1);
  m_.scope_delivered.add(1);
  if (m.id.sender == id()) {
    // Multicast -> own ordered delivery latency (the paper's "latency of
    // the total-ordering protocol" metric).
    const auto& [seq, sent_us] = order_inflight_[m.id.seq & 63];
    if (seq == m.id.seq) {
      m_.order_latency.record(sim().now().us - sent_us);
      m_.scope_order_latency.record(sim().now().us - sent_us);
    }
    // An own message coming back retires flow-control debt and may reopen
    // the window for queued sends (no-op while flushing: install_view
    // resets the debt and replays the queue through multicast()).
    if (inflight_ > 0) {
      --inflight_;
      m_.pipeline_depth.set(inflight_);
      if (!window_queue_.empty()) release_window();
    }
  }
  Delivered d{m.id.sender, m.id.seq, m.payload};
  if (awaiting_state_) {
    held_deliveries_.push_back(std::move(d));
    return;
  }
  if (callbacks_.on_deliver) callbacks_.on_deliver(d);
}

void GroupMember::handle_engine(EngineWire m) {
  if (!is_member() || !view_.contains(m.header.from)) return;
  note_alive(m.header.from);
  tick_lamport(m.header.lamport);
  buffer_.observe(m.header.from, m.header.lamport, m.header.sent_upto,
                  m.header.received);
  apply_engine(engine_->on_control(m.header.from, m.body, sim().now().us));
  deliver_ready();
  check_gaps();
}

void GroupMember::apply_engine(EngineOut out) {
  if (out.token_hold_us >= 0) m_.token_hold.record(out.token_hold_us);
  for (uint32_t n : out.batch_sizes) m_.batch_size.record(n);
  for (sim::Payload& body : out.broadcasts) {
    m_.engine_msgs_sent.add(1);
    cast_to_members(net::encode(
        BasicEngineWire<const CutVector&>{out_header(), std::move(body)}));
  }
  if (out.unicast) {
    m_.engine_msgs_sent.add(1);
    if (out.token_forward) m_.token_rotations.add(1);
    send(sim::Endpoint{out.unicast->first, config_.port},
         net::encode(BasicEngineWire<const CutVector&>{
             out_header(), std::move(out.unicast->second)}));
  }
  if (out.forward_timer.us > 0) {
    set_timer(out.forward_timer, [this] {
      if (!is_member()) return;
      apply_engine(engine_->on_forward_timer(sim().now().us));
    });
  }
}

void GroupMember::schedule_ack_cut() {
  if (config_.order_batch <= 1) {
    // Legacy path: every data message reacts with a (coalesced) cut.
    send_cut(/*periodic=*/false);
    return;
  }
  ++unacked_data_;
  if (unacked_data_ >= config_.order_batch) {
    flush_ack_cut();
    return;
  }
  if (ack_timer_ == 0) {
    // Partial batch: bound the sender's wait for delivery evidence. The
    // nack_delay cadence keeps the latency cost of batching one NACK-round
    // small at low rates while a busy stream fills batches long before it.
    ack_timer_ = set_timer(config_.nack_delay, [this] {
      ack_timer_ = 0;
      flush_ack_cut();
    });
  }
}

void GroupMember::flush_ack_cut() {
  if (unacked_data_ == 0) return;
  m_.batch_size.record(unacked_data_);
  send_cut(/*periodic=*/false);
}

void GroupMember::send_cut(bool periodic) {
  if (!is_member()) return;
  if (view_.size() <= 1) return;
  if (periodic) {
    // Any cut carries the full cumulative received vector, so it acks
    // everything heard so far -- the batching counter restarts.
    unacked_data_ = 0;
    m_.cuts_sent.add(1);
    cast_to_members(
        net::encode(BasicCutWire<const CutVector&>{out_header(), true}));
    return;
  }
  if (cut_scheduled_) return;
  cut_scheduled_ = true;
  execute(config_.send_proc, [this] {
    cut_scheduled_ = false;
    unacked_data_ = 0;
    if (!is_member() || view_.size() <= 1) return;
    m_.cuts_sent.add(1);
    cast_to_members(
        net::encode(BasicCutWire<const CutVector&>{out_header(), false}));
  });
}

void GroupMember::retain(const DataMsg& m) { retained_[m.id] = m; }

void GroupMember::prune_retained() {
  // retained_ is sorted by (sender, seq): each sender's stable messages are
  // a prefix of its run, dropped with one range erase.
  for (auto it = retained_.begin(); it != retained_.end();) {
    MemberId sender = it->first.sender;
    uint64_t stable = buffer_.stable_upto(sender);
    if (stable > 0)
      it = retained_.erase(it, retained_.upper_bound(MsgId{sender, stable}));
    it = retained_.upper_bound(MsgId{sender, UINT64_MAX});
  }
}

void GroupMember::check_gaps() {
  if (!is_member()) return;
  // A NACKed id at or below its sender's receive watermark is never a gap
  // again in this view (install_view clears the map before any watermark
  // moves down), so its dedup entry would only grow the map.
  for (auto it = nacked_.begin(); it != nacked_.end();) {
    const MemberId sender = it->first.sender;
    nacked_.erase(it, nacked_.upper_bound(
                          MsgId{sender, buffer_.received_upto(sender)}));
    it = nacked_.upper_bound(MsgId{sender, UINT64_MAX});
  }
  const std::vector<MsgId> gaps = buffer_.gaps();
  if (gaps.empty()) return;
  // gaps() lists each sender's run together, senders ascending: one NACK
  // timer per sender with gaps not NACKed recently.
  sim::Time now = sim().now();
  for (auto run = gaps.begin(); run != gaps.end();) {
    const MemberId sender = run->sender;
    std::vector<MsgId> ids;
    for (; run != gaps.end() && run->sender == sender; ++run) {
      auto it = nacked_.find(*run);
      if (it == nacked_.end() || now - it->second >= config_.nack_delay * 4)
        ids.push_back(*run);
    }
    if (ids.empty()) continue;
    for (const MsgId& gap : ids) nacked_[gap] = now;
    set_timer(config_.nack_delay, [this, sender, ids = std::move(ids)] {
      if (!is_member()) return;
      NackWire m;
      for (const MsgId& gap : ids)
        if (buffer_.received_upto(gap.sender) < gap.seq) m.missing.push_back(gap);
      if (m.missing.empty()) return;
      m_.nacks_sent.add(1);
      m.header = make_header();
      send(sim::Endpoint{sender, config_.port}, net::encode(m));
    });
  }
}

// ---------------------------------------------------------------------------
// Failure detection & membership triggers
// ---------------------------------------------------------------------------

void GroupMember::heartbeat_tick() {
  hb_timer_ = set_timer(config_.heartbeat_interval, [this] { heartbeat_tick(); });
  if (!is_member()) return;
  send_cut(/*periodic=*/true);
  if (state_ == State::kMember)
    apply_engine(engine_->on_tick(sim().now().us));
  suspect_check();
  // Merge beacon: a member of a partial view advertises itself to peers
  // outside the view so healed partitions re-merge.
  if (view_.size() < config_.peers.size() &&
      ++merge_tick_ % kMergeBeaconEvery == 0) {
    JoinReqWire m{make_header(), host().incarnation()};
    std::vector<sim::HostId> outside;
    for (sim::HostId p : config_.peers)
      if (!view_.contains(p)) outside.push_back(p);
    if (!outside.empty())
      Process::multicast(config_.port, net::encode(m), outside);
  }
}

void GroupMember::suspect_check() {
  if (state_ != State::kMember) return;
  sim::Time now = sim().now();
  bool changed = false;
  for (size_t r = 0; r < view_.size(); ++r) {
    MemberId m = view_.members[r];
    if (m == id() || suspected_.count(m)) continue;
    if (now - last_heard_[r] > config_.suspect_timeout) {
      suspected_.insert(m);
      changed = true;
      JLOG(kInfo, "gcs") << name() << " suspects member " << m;
    }
  }
  if (changed || !joiners_.empty() || !leavers_.empty()) maybe_coordinate();
}

void GroupMember::handle_join_req(JoinReqWire m) {
  MemberId who = m.header.from;
  if (who == id()) return;
  note_alive(who);
  if (state_ == State::kJoining) {
    joiners_.insert(who);
    return;
  }
  if (state_ != State::kMember) return;
  if (view_.contains(who)) {
    // A current member asking to join again restarted and lost its state:
    // treat the old incarnation as failed.
    suspected_.insert(who);
  }
  joiners_.insert(who);
  maybe_coordinate();
}

void GroupMember::handle_leave(LeaveWire m) {
  if (!view_.contains(m.header.from)) return;
  leavers_.insert(m.header.from);
  if (state_ == State::kMember) maybe_coordinate();
}

void GroupMember::maybe_coordinate() {
  if (state_ != State::kMember) return;
  std::set<MemberId> target(view_.members.begin(), view_.members.end());
  for (MemberId s : suspected_) target.erase(s);
  for (MemberId l : leavers_) target.erase(l);
  // A restarted member is both suspected (old incarnation) and a joiner
  // (new incarnation); it re-enters as fresh, so joiners win over suspects.
  for (MemberId j : joiners_) target.insert(j);
  std::vector<MemberId> membership = sorted(target);
  if (membership.empty()) return;
  // A restarted (or partitioned-and-diverged) incarnation is suspected AND
  // joining at once: the membership set comes out unchanged, but it still
  // needs a fresh view -- with a new epoch -- to be readmitted. Only bail
  // when nothing at all changed.
  bool reincarnation = false;
  for (MemberId j : joiners_) {
    if (suspected_.count(j)) {
      reincarnation = true;
      break;
    }
  }
  if (membership == view_.members && !reincarnation) return;

  if (config_.require_majority &&
      membership.size() * 2 <= config_.peers.size()) {
    JLOG(kInfo, "gcs") << name() << " holding view change: no majority";
    return;
  }

  // Only the lowest unsuspected current member coordinates.
  MemberId coordinator = sim::kInvalidHost;
  for (MemberId m : view_.members) {
    if (!suspected_.count(m) && !leavers_.count(m)) {
      coordinator = m;
      break;
    }
  }
  if (coordinator != id()) return;
  begin_flush(std::move(membership));
}

// ---------------------------------------------------------------------------
// Flush / view change
// ---------------------------------------------------------------------------

void GroupMember::begin_flush(std::vector<MemberId> membership) {
  state_ = State::kFlushing;
  if (flush_started_us_ < 0) flush_started_us_ = sim().now().us;
  flush_coordinator_ = true;
  max_epoch_ = std::max(max_epoch_, view_.id.epoch) + 1;
  flush_proposed_ = ViewId{max_epoch_, id()};
  flush_membership_ = std::move(membership);
  flush_acks_.clear();
  JLOG(kInfo, "gcs") << name() << " proposing view epoch " << max_epoch_
                     << " with " << flush_membership_.size() << " members";

  // Own ack.
  VcAckWire own;
  own.header = make_header();
  own.proposed = *flush_proposed_;
  for (const auto& [id_, msg] : retained_) {
    (void)id_;
    own.held.push_back(msg);
  }
  own.engine_state = engine_->transfer_state();
  flush_acks_[id()] = own;

  VcProposeWire prop{make_header(), *flush_proposed_, flush_membership_};
  std::vector<sim::HostId> others;
  for (MemberId m : flush_membership_)
    if (m != id()) others.push_back(m);
  if (!others.empty())
    Process::multicast(config_.port, net::encode(prop), others);

  if (flush_timer_ != 0) cancel_timer(flush_timer_);
  flush_timer_ =
      set_timer(config_.flush_timeout, [this] { flush_timeout_fired(); });

  if (others.empty()) {
    complete_flush();
  }
}

void GroupMember::handle_vc_propose(VcProposeWire m, sim::Endpoint from) {
  note_alive(m.header.from);
  if (state_ == State::kDown) return;
  // A (re)joiner's clock catches up through the flush exchange, so nothing
  // it sends in the new view orders before messages the old view delivered.
  tick_lamport(m.header.lamport);
  // Ignore stale proposals.
  if (m.proposed.epoch <= view_.id.epoch) return;
  if (flush_proposed_ && !flush_coordinator_ && m.proposed < *flush_proposed_)
    return;
  if (flush_coordinator_ && flush_proposed_ && m.proposed < *flush_proposed_)
    return;
  // A higher proposal supersedes our own coordination attempt.
  if (flush_coordinator_ && flush_proposed_ && m.proposed > *flush_proposed_) {
    flush_coordinator_ = false;
    flush_acks_.clear();
  }
  max_epoch_ = std::max(max_epoch_, m.proposed.epoch);
  flush_proposed_ = m.proposed;
  if (state_ == State::kMember) state_ = State::kFlushing;
  if (flush_started_us_ < 0) flush_started_us_ = sim().now().us;

  VcAckWire ack;
  ack.header = make_header();
  ack.proposed = m.proposed;
  for (const auto& [id_, msg] : retained_) {
    (void)id_;
    ack.held.push_back(msg);
  }
  ack.engine_state = engine_->transfer_state();
  send(from, net::encode(ack));

  if (flush_timer_ != 0) cancel_timer(flush_timer_);
  flush_timer_ =
      set_timer(config_.flush_timeout, [this] { flush_timeout_fired(); });
}

void GroupMember::handle_vc_ack(VcAckWire m) {
  note_alive(m.header.from);
  tick_lamport(m.header.lamport);
  if (!flush_coordinator_ || !flush_proposed_ || m.proposed != *flush_proposed_)
    return;
  flush_acks_[m.header.from] = std::move(m);
  for (MemberId member : flush_membership_) {
    if (!flush_acks_.count(member)) return;
  }
  complete_flush();
}

void GroupMember::complete_flush() {
  VcCommitWire commit;
  commit.new_view.id = *flush_proposed_;
  commit.new_view.members = flush_membership_;
  commit.old_members = view_.members;
  commit.state_source = sim::kInvalidHost;

  std::set<MemberId> old_set(view_.members.begin(), view_.members.end());
  for (MemberId m : flush_membership_) {
    bool fresh = !old_set.count(m) || joiners_.count(m);
    if (fresh) commit.joiners.push_back(m);
  }

  // Union of everything anyone holds, plus sequence baselines and the
  // merged engine state.
  std::map<MsgId, DataMsg> union_map;
  for (const auto& [member, seq] : buffer_.received_vector())
    commit.seq_baseline[member] = seq;
  std::vector<sim::Payload> engine_states;
  engine_states.reserve(flush_acks_.size());
  for (auto& [member, ack] : flush_acks_) {
    (void)member;
    engine_states.push_back(ack.engine_state);
    for (DataMsg& msg : ack.held) {
      uint64_t& base = commit.seq_baseline[msg.id.sender];
      base = std::max(base, msg.id.seq);
      union_map.emplace(msg.id, std::move(msg));
    }
    for (const auto& [sender, seq] : ack.header.received) {
      uint64_t& base = commit.seq_baseline[sender];
      base = std::max(base, seq);
    }
  }
  for (auto& [id_, msg] : union_map) {
    (void)id_;
    commit.union_msgs.push_back(std::move(msg));
  }
  // Joiners restart their stream at zero.
  for (MemberId j : commit.joiners) commit.seq_baseline[j] = 0;
  commit.engine_state = engine_->merge_transfer_states(engine_states);

  if (!commit.joiners.empty()) {
    for (MemberId m : flush_membership_) {
      bool is_joiner =
          std::find(commit.joiners.begin(), commit.joiners.end(), m) !=
          commit.joiners.end();
      if (!is_joiner && old_set.count(m)) {
        commit.state_source = m;
        break;
      }
    }
  }

  commit.header = make_header();
  std::vector<sim::HostId> others;
  for (MemberId m : flush_membership_)
    if (m != id()) others.push_back(m);
  if (!others.empty())
    Process::multicast(config_.port, net::encode(commit), others);
  install_view(commit);
}

void GroupMember::handle_vc_commit(VcCommitWire m) {
  note_alive(m.header.from);
  tick_lamport(m.header.lamport);
  if (m.new_view.id <= view_.id) return;
  if (flush_proposed_ && m.new_view.id < *flush_proposed_) return;
  install_view(m);
}

void GroupMember::install_view(const VcCommitWire& commit) {
  if (flush_timer_ != 0) {
    cancel_timer(flush_timer_);
    flush_timer_ = 0;
  }
  bool was_joining = (state_ == State::kJoining);
  flush_proposed_.reset();
  flush_coordinator_ = false;
  flush_acks_.clear();
  flush_membership_.clear();

  if (!commit.new_view.contains(id())) {
    JLOG(kInfo, "gcs") << name() << " excluded from view epoch "
                       << commit.new_view.id.epoch;
    become_down();
    if (callbacks_.on_view) callbacks_.on_view(View{});
    return;
  }

  // The merged engine state must land before the flush delivery so the
  // flush order (token mode: stamped globals first) agrees at every member.
  engine_->install_transfer_state(commit.engine_state);

  // Deliver the old view's closing message set (identical everywhere).
  if (!was_joining) {
    for (const DataMsg& msg : commit.union_msgs) {
      if (buffer_.insert(msg)) retain(msg);
    }
    for (const DataMsg& msg : buffer_.flush_all()) deliver_to_app(msg);
  }

  // Install.
  set_view(commit.new_view);
  max_epoch_ = std::max(max_epoch_, view_.id.epoch);
  buffer_.reset(view_, id());
  std::set<MemberId> joiner_set(commit.joiners.begin(), commit.joiners.end());
  for (MemberId m : view_.members) {
    if (joiner_set.count(m)) {
      // A reincarnated member (crash + rejoin with no intervening view)
      // survives the buffer's merge pass; its old incarnation's claims must
      // not gate the fresh stream.
      buffer_.reset_peer(m);
      buffer_.set_stream_position(m, 0);
    } else {
      auto it = commit.seq_baseline.find(m);
      if (it != commit.seq_baseline.end())
        buffer_.set_stream_position(
            m, std::max(it->second, buffer_.received_upto(m)));
    }
  }
  if (joiner_set.count(id())) {
    my_seq_ = 0;
  }
  retained_.clear();
  nacked_.clear();
  suspected_.clear();
  leavers_.clear();
  for (MemberId j : view_.members) joiners_.erase(j);
  sim::Time now = sim().now();
  last_heard_.assign(view_.size(), now);
  state_ = State::kMember;
  // Start the engine's new-view epoch (token mode: the lowest member mints
  // the view's token) now that stream positions are settled.
  apply_engine(engine_->reset(view_, id(), now.us));
  m_.views_installed.add(1);
  telemetry::TraceBuffer& tr = sim().telemetry().trace();
  if (flush_started_us_ >= 0) {
    tr.complete(flush_started_us_, now.us, host_id(), tc_flush_,
                view_.id.epoch, view_.size());
    flush_started_us_ = -1;
  }
  tr.instant(now.us, host_id(), tc_view_, view_.id.epoch, view_.size());
  if (join_timer_ != 0) {
    cancel_timer(join_timer_);
    join_timer_ = 0;
  }

  JLOG(kInfo, "gcs") << name() << " installed view epoch " << view_.id.epoch
                     << " (" << view_.size() << " members)";

  // State transfer.
  bool i_am_fresh = joiner_set.count(id()) > 0;
  if (!commit.joiners.empty() && !i_am_fresh && callbacks_.get_state &&
      commit.state_source != sim::kInvalidHost) {
    // Snapshot now, before any new-view message mutates the application.
    cached_state_ = callbacks_.get_state();
  }
  if ((was_joining || i_am_fresh) && commit.state_source != sim::kInvalidHost &&
      commit.state_source != id() && callbacks_.install_state) {
    awaiting_state_ = true;
    state_source_ = commit.state_source;
    old_members_for_state_.clear();
    for (MemberId m : commit.old_members) {
      if (m != id() && view_.contains(m) && !joiner_set.count(m))
        old_members_for_state_.push_back(m);
    }
    request_state();
  } else {
    awaiting_state_ = false;
  }

  if (callbacks_.on_view) callbacks_.on_view(view_);

  // Bootstrap the new view's clocks so ordered delivery does not wait a full
  // heartbeat.
  send_cut(/*periodic=*/false);

  // The flush delivered -- or identically discarded -- every message this
  // member had in flight, so the flow-control debt resets with the view.
  inflight_ = 0;
  m_.pipeline_depth.set(0);

  // Release queued sends through multicast() (which re-applies the window):
  // window-stalled sends first -- they predate anything buffered during the
  // flush -- then the flush-time buffer.
  auto stalled = std::move(window_queue_);
  window_queue_.clear();
  auto queued = std::move(pending_sends_);
  pending_sends_.clear();
  for (sim::Payload& payload : stalled) multicast(std::move(payload));
  for (sim::Payload& payload : queued) multicast(std::move(payload));
}

void GroupMember::flush_timeout_fired() {
  flush_timer_ = 0;
  if (state_ != State::kFlushing && state_ != State::kJoining) return;
  if (flush_coordinator_) {
    // Drop unresponsive members and retry.
    std::vector<MemberId> responsive;
    for (MemberId m : flush_membership_) {
      if (flush_acks_.count(m)) {
        responsive.push_back(m);
      } else {
        suspected_.insert(m);
        joiners_.erase(m);
        JLOG(kInfo, "gcs") << name() << " flush: no ack from " << m;
      }
    }
    if (responsive.empty() || responsive == std::vector<MemberId>{id()}) {
      responsive = {id()};
    }
    if (config_.require_majority &&
        responsive.size() * 2 <= config_.peers.size()) {
      state_ = State::kMember;
      flush_coordinator_ = false;
      flush_proposed_.reset();
      return;
    }
    begin_flush(std::move(responsive));
    return;
  }
  // Participant: the coordinator died mid-flush.
  if (flush_proposed_) {
    suspected_.insert(flush_proposed_->coordinator);
    flush_proposed_.reset();
  }
  if (view_.contains(id()) && !view_.members.empty()) {
    state_ = State::kMember;
    maybe_coordinate();
  }
}

// ---------------------------------------------------------------------------
// Join / state transfer
// ---------------------------------------------------------------------------

void GroupMember::join_tick() {
  join_timer_ = 0;
  if (state_ != State::kJoining) return;
  ++join_ticks_;
  JoinReqWire m{make_header(), host().incarnation()};
  cast_to_peers(net::encode(m));

  if (join_ticks_ >= kJoinSettleTicks) {
    // Cold start: no existing member answered; the lowest-id requester
    // founds the group.
    std::vector<MemberId> candidates = sorted(joiners_);
    bool majority_ok = !config_.require_majority ||
                       candidates.size() * 2 > config_.peers.size();
    if (!candidates.empty() && candidates.front() == id() && majority_ok &&
        !flush_proposed_) {
      begin_flush(std::move(candidates));
      // Note: state_ is now kFlushing; join_timer keeps silent.
      return;
    }
  }
  join_timer_ = set_timer(config_.join_retry, [this] { join_tick(); });
}

void GroupMember::request_state() {
  if (!awaiting_state_) return;
  StateReqWire req{make_header(), view_.id};
  send(sim::Endpoint{state_source_, config_.port}, net::encode(req));
  state_timer_ = set_timer(config_.state_retry, [this] {
    if (!awaiting_state_) return;
    // Rotate to another old member in case the source died.
    if (!old_members_for_state_.empty()) {
      auto it = std::find(old_members_for_state_.begin(),
                          old_members_for_state_.end(), state_source_);
      size_t idx = it == old_members_for_state_.end()
                       ? 0
                       : (static_cast<size_t>(it - old_members_for_state_.begin()) + 1) %
                             old_members_for_state_.size();
      state_source_ = old_members_for_state_[idx];
    }
    request_state();
  });
}

void GroupMember::handle_state_req(StateReqWire m, sim::Endpoint from) {
  note_alive(m.header.from);
  if (!is_member()) return;
  StateWire reply;
  reply.header = make_header();
  reply.view_id = m.view_id;
  if (cached_state_) {
    reply.state = *cached_state_;
  } else if (callbacks_.get_state) {
    reply.state = callbacks_.get_state();
  } else {
    return;
  }
  execute(config_.send_proc,
          [this, buf = net::encode(reply), from] { send(from, buf); });
}

void GroupMember::handle_state(StateWire m) {
  note_alive(m.header.from);
  if (!awaiting_state_) return;
  if (m.view_id != view_.id) return;
  awaiting_state_ = false;
  if (state_timer_ != 0) {
    cancel_timer(state_timer_);
    state_timer_ = 0;
  }
  JLOG(kInfo, "gcs") << name() << " received state ("
                     << m.state.size() << " bytes)";
  if (callbacks_.install_state) callbacks_.install_state(m.state);
  auto held = std::move(held_deliveries_);
  held_deliveries_.clear();
  for (Delivered& d : held) {
    if (callbacks_.on_deliver) callbacks_.on_deliver(d);
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void GroupMember::become_down() {
  state_ = State::kDown;
  if (hb_timer_ != 0) cancel_timer(hb_timer_);
  if (join_timer_ != 0) cancel_timer(join_timer_);
  if (flush_timer_ != 0) cancel_timer(flush_timer_);
  if (state_timer_ != 0) cancel_timer(state_timer_);
  if (ack_timer_ != 0) cancel_timer(ack_timer_);
  hb_timer_ = join_timer_ = flush_timer_ = state_timer_ = ack_timer_ = 0;
  buffer_.clear_all();
  engine_->clear();
  set_view(View{});
  lamport_ = 0;
  my_seq_ = 0;
  retained_.clear();
  nacked_.clear();
  last_heard_.clear();
  suspected_.clear();
  joiners_.clear();
  leavers_.clear();
  flush_proposed_.reset();
  flush_coordinator_ = false;
  flush_acks_.clear();
  flush_membership_.clear();
  flush_started_us_ = -1;
  pending_sends_.clear();
  inflight_ = 0;
  m_.pipeline_depth.set(0);
  window_queue_.clear();
  unacked_data_ = 0;
  awaiting_state_ = false;
  held_deliveries_.clear();
  cached_state_.reset();
  old_members_for_state_.clear();
  cut_scheduled_ = false;
  join_ticks_ = 0;
  merge_tick_ = 0;
}

void GroupMember::on_crash() {
  // Timers are already cancelled by the Process base; reset handles.
  hb_timer_ = join_timer_ = flush_timer_ = state_timer_ = ack_timer_ = 0;
  become_down();
  JLOG(kInfo, "gcs") << name() << " crashed (state lost)";
}

void GroupMember::on_restart() {
  // The daemon restarts down; the application layer decides when to rejoin.
}

}  // namespace gcs
