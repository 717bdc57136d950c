// Fixed sample instances of every wire message type, shared by the golden
// and robustness codec tests. Every field holds a non-default value so a
// dropped or swapped field changes the bytes.
#pragma once

#include <stdexcept>
#include <string>

#include "gcs/messages.h"
#include "joshua/protocol.h"
#include "pbs/protocol.h"
#include "pvfs/metadata.h"
#include "rsm/replicated_service.h"

namespace codec_samples {

inline std::string to_hex(const sim::Payload& p) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(p.size() * 2);
  for (uint8_t b : p) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

inline sim::Payload from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd hex length");
  auto nibble = [](char c) -> uint8_t {
    if (c >= '0' && c <= '9') return static_cast<uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<uint8_t>(c - 'a' + 10);
    throw std::invalid_argument("bad hex digit");
  };
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < hex.size(); i += 2)
    bytes.push_back(
        static_cast<uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  return sim::Payload(bytes.begin(), bytes.end());
}

// -- gcs ----------------------------------------------------------------------

inline gcs::Header header() {
  return {3, 77, 12, {{0, 5}, {1, 7}}};
}

inline gcs::DataMsg data_msg() {
  gcs::DataMsg m;
  m.id = {2, 9};
  m.lamport = 42;
  m.payload = {0xde, 0xad};
  return m;
}

inline gcs::DataWire data_wire() { return {header(), data_msg()}; }
inline gcs::CutWire cut_wire(bool periodic) { return {header(), periodic}; }
inline gcs::NackWire nack_wire() { return {header(), {{1, 4}, {2, 7}}}; }
inline gcs::RetransmitWire retransmit_wire() {
  return {header(), {data_msg(), data_msg()}};
}
inline gcs::JoinReqWire join_req_wire() { return {header(), 5}; }
inline gcs::LeaveWire leave_wire() { return {header()}; }
inline gcs::VcProposeWire vc_propose_wire() {
  return {header(), {9, 1}, {0, 1, 2}};
}
inline gcs::VcAckWire vc_ack_wire() {
  return {header(), {9, 1}, {data_msg()}, {7, 7}};
}
inline gcs::VcCommitWire vc_commit_wire() {
  gcs::VcCommitWire c;
  c.header = header();
  c.new_view = {{9, 1}, {0, 1, 2}};
  c.old_members = {0, 1};
  c.joiners = {2};
  c.union_msgs = {data_msg()};
  c.seq_baseline = {{0, 3}, {1, 8}, {2, 0}};
  c.state_source = 1;
  c.engine_state = {5};
  return c;
}
inline gcs::StateReqWire state_req_wire() { return {header(), {4, 2}}; }
inline gcs::StateWire state_wire() { return {header(), {4, 2}, {1, 2, 3, 4}}; }
inline gcs::EngineWire engine_wire() { return {header(), {0x01, 0x02}}; }

// -- pbs ----------------------------------------------------------------------

inline pbs::JobSpec job_spec() {
  pbs::JobSpec s;
  s.name = "climate-sim";
  s.user = "alice";
  s.queue = "long";
  s.nodes = 3;
  s.walltime = sim::minutes(30);
  s.run_time = sim::seconds(90);
  s.priority = -2;
  s.replicas = 2;
  s.script = "#!/bin/sh\nmpirun ./climate\n";
  s.node_type = "gpu";
  s.features = {"ib", "bigmem"};
  s.array_count = 4;
  s.array_index = -1;
  return s;
}

inline pbs::Job job() {
  pbs::Job j;
  j.id = 17;
  j.spec = job_spec();
  j.state = pbs::JobState::kRunning;
  j.submit_time = sim::Time{1000};
  j.start_time = sim::Time{2000};
  j.end_time = sim::Time{-1};
  j.exit_code = -9;
  j.cancelled = true;
  j.queue_rank = 4;
  j.exec_host = 9;
  j.replica_hosts = {9, 11};
  return j;
}

inline pbs::SubmitRequest submit_request() { return {job_spec(), 23}; }
inline pbs::StatRequest stat_request() { return {5, false}; }
inline pbs::QuietStatRequest quiet_stat_request() { return {stat_request()}; }
inline pbs::MomLaunchRequest mom_launch_request() { return {job(), 2}; }
inline pbs::JobReport job_report() {
  return {17, 271, true, sim::Time{10}, sim::Time{20}, 5};
}
inline pbs::StatResponse stat_response() {
  return {pbs::Status::kOk, {job(), job()}};
}

// -- joshua and rsm -----------------------------------------------------------

inline rsm::Command command() { return {3, 99, {1, 2, 3}, 0}; }

inline joshua::CommandLog command_log() {
  return {{{1}, {2, 2}, {3, 3, 3}}, 57};
}

inline joshua::MutexTable mutex_table() {
  joshua::MutexTable table;
  joshua::MutexEntry running;
  running.job = 7;
  running.max_real = 2;
  running.claims = {joshua::MutexClaim{31, 3}, joshua::MutexClaim{32, 4}};
  joshua::MutexEntry finished;
  finished.job = 9;
  finished.done = true;
  finished.winner_mom = 33;
  finished.exit_code = -11;
  table.entries = {running, finished};
  table.terminal = {2, 9};
  table.revoked = {34};
  return table;
}

inline joshua::TransferEnvelope transfer_envelope() {
  return {joshua::TransferKind::kSnapshot, {9, 8, 7}, {4, 2}};
}

// -- pvfs ---------------------------------------------------------------------

inline pvfs::MdRequest md_request() {
  return {pvfs::MdOp::kRename, 5, 6, 7, "a.txt", "b.txt", 0600, 4096};
}

inline pvfs::MdResponse md_response() {
  pvfs::MdResponse r;
  r.status = pvfs::MdStatus::kExists;
  r.handle = 12;
  r.attr = {pvfs::ObjType::kDirectory, 0755, 1, 3, 4, 2};
  r.entries = {{"x", 13, pvfs::ObjType::kFile},
               {"y", 14, pvfs::ObjType::kDirectory}};
  return r;
}

/// A small namespace: /d, /d/f (resized), /g.
inline void populate(pvfs::MetadataServer& server) {
  pvfs::MdResponse d = server.apply_typed(
      {pvfs::MdOp::kMkdir, pvfs::kRootHandle, 0, 0, "d", "", 0750, 0});
  pvfs::MdResponse f = server.apply_typed(
      {pvfs::MdOp::kCreate, d.handle, 0, 0, "f", "", 0640, 0});
  server.apply_typed({pvfs::MdOp::kSetattr, 0, f.handle, 0, "", "", 0600, 77});
  server.apply_typed(
      {pvfs::MdOp::kCreate, pvfs::kRootHandle, 0, 0, "g", "", 0644, 0});
}

}  // namespace codec_samples
