#include "joshua/protocol.h"

#include "rsm/replicated_service.h"

namespace joshua {

GroupOp peek_group_op(const sim::Payload& buf) {
  if (buf.empty()) throw net::WireError("joshua: empty group message");
  return static_cast<GroupOp>(buf[0]);
}

// The command frame is the rsm core's; GroupOp::kCommand is its tag.
static_assert(static_cast<uint8_t>(GroupOp::kCommand) == rsm::kCommandTag);

sim::Payload encode_group(const GroupCommand& m) {
  return rsm::encode_command({m.origin, m.cmd_seq, m.pbs_request, 0});
}

GroupCommand decode_group_command(const sim::Payload& buf) {
  rsm::Command cmd = rsm::decode_command(buf);
  return {cmd.origin, cmd.seq, std::move(cmd.request)};
}

sim::Payload encode_group(const GroupMutexReq& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(GroupOp::kMutexReq));
  w.u64(m.job);
  w.u32(m.head);
  w.u32(m.mom);
  w.u32(m.replicas);
  return w.take();
}

GroupMutexReq decode_group_mutex_req(const sim::Payload& buf) {
  net::Reader r(buf);
  if (static_cast<GroupOp>(r.u8()) != GroupOp::kMutexReq)
    throw net::WireError("joshua: not a mutex request");
  GroupMutexReq m;
  m.job = r.u64();
  m.head = r.u32();
  m.mom = r.u32();
  m.replicas = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode_group(const GroupMutexDone& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(GroupOp::kMutexDone));
  w.u64(m.job);
  w.i64(m.exit_code);
  w.u32(m.head);
  w.u32(m.mom);
  return w.take();
}

GroupMutexDone decode_group_mutex_done(const sim::Payload& buf) {
  net::Reader r(buf);
  if (static_cast<GroupOp>(r.u8()) != GroupOp::kMutexDone)
    throw net::WireError("joshua: not a mutex done");
  GroupMutexDone m;
  m.job = r.u64();
  m.exit_code = static_cast<int32_t>(r.i64());
  m.head = r.u32();
  m.mom = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode_group(const GroupMutexRevoke& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(GroupOp::kMutexRevoke));
  w.u32(m.mom);
  return w.take();
}

GroupMutexRevoke decode_group_mutex_revoke(const sim::Payload& buf) {
  net::Reader r(buf);
  if (static_cast<GroupOp>(r.u8()) != GroupOp::kMutexRevoke)
    throw net::WireError("joshua: not a mutex revoke");
  GroupMutexRevoke m;
  m.mom = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode_group(const GroupPreempt& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(GroupOp::kPreempt));
  w.u64(m.job);
  return w.take();
}

GroupPreempt decode_group_preempt(const sim::Payload& buf) {
  net::Reader r(buf);
  if (static_cast<GroupOp>(r.u8()) != GroupOp::kPreempt)
    throw net::WireError("joshua: not a group preempt");
  GroupPreempt m;
  m.job = r.u64();
  r.expect_done();
  return m;
}

sim::Payload encode_plugin(const JMutexRequest& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(PluginOp::kJMutex));
  w.u64(m.job);
  w.u32(m.head);
  w.u32(m.mom);
  w.u32(m.replicas);
  return w.take();
}

JMutexRequest decode_jmutex(const sim::Payload& buf) {
  net::Reader r(buf);
  if (static_cast<PluginOp>(r.u8()) != PluginOp::kJMutex)
    throw net::WireError("joshua: not a jmutex request");
  JMutexRequest m;
  m.job = r.u64();
  m.head = r.u32();
  m.mom = r.u32();
  m.replicas = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode_plugin(const JDoneRequest& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(PluginOp::kJDone));
  w.u64(m.job);
  w.i64(m.exit_code);
  w.u32(m.mom);
  return w.take();
}

JDoneRequest decode_jdone(const sim::Payload& buf) {
  net::Reader r(buf);
  if (static_cast<PluginOp>(r.u8()) != PluginOp::kJDone)
    throw net::WireError("joshua: not a jdone request");
  JDoneRequest m;
  m.job = r.u64();
  m.exit_code = static_cast<int32_t>(r.i64());
  m.mom = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode_jmutex_response(const JMutexResponse& m) {
  net::Writer w;
  w.boolean(m.won);
  return w.take();
}

JMutexResponse decode_jmutex_response(const sim::Payload& buf) {
  net::Reader r(buf);
  JMutexResponse m;
  m.won = r.boolean();
  r.expect_done();
  return m;
}

sim::Payload encode_command_log(const CommandLog& log) {
  net::Writer w;
  w.vec(log.requests,
        [](net::Writer& w2, const sim::Payload& p) { w2.bytes(p); });
  w.u64(log.next_job_id);
  return w.take();
}

CommandLog decode_command_log(const sim::Payload& buf) {
  net::Reader r(buf);
  CommandLog log;
  log.requests =
      r.vec<sim::Payload>([](net::Reader& r2) { return r2.bytes(); });
  log.next_job_id = r.u64();
  r.expect_done();
  return log;
}

sim::Payload encode_mutex_table(const MutexTable& table) {
  net::Writer w;
  w.vec(table.entries, [](net::Writer& w2, const MutexEntry& e) {
    w2.u64(e.job);
    w2.u32(e.max_real);
    w2.boolean(e.done);
    w2.u32(e.winner_mom);
    w2.i64(e.exit_code);
    w2.vec(e.claims, [](net::Writer& w3, const MutexClaim& c) {
      w3.u32(c.mom);
      w3.u32(c.head);
    });
  });
  w.vec(table.terminal,
        [](net::Writer& w2, pbs::JobId id) { w2.u64(id); });
  w.vec(table.revoked,
        [](net::Writer& w2, sim::HostId mom) { w2.u32(mom); });
  return w.take();
}

MutexTable decode_mutex_table(const sim::Payload& buf) {
  net::Reader r(buf);
  MutexTable table;
  table.entries = r.vec<MutexEntry>([](net::Reader& r2) {
    MutexEntry e;
    e.job = r2.u64();
    e.max_real = r2.u32();
    e.done = r2.boolean();
    e.winner_mom = r2.u32();
    e.exit_code = static_cast<int32_t>(r2.i64());
    e.claims = r2.vec<MutexClaim>([](net::Reader& r3) {
      MutexClaim c;
      c.mom = r3.u32();
      c.head = r3.u32();
      return c;
    });
    return e;
  });
  table.terminal =
      r.vec<pbs::JobId>([](net::Reader& r2) { return r2.u64(); });
  table.revoked =
      r.vec<sim::HostId>([](net::Reader& r2) { return r2.u32(); });
  r.expect_done();
  return table;
}

sim::Payload wrap_transfer(TransferKind kind, sim::Payload body,
                           sim::Payload mutexes) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(kind));
  w.bytes(body);
  w.bytes(mutexes);
  return w.take();
}

TransferEnvelope unwrap_transfer(const sim::Payload& buf) {
  net::Reader r(buf);
  TransferEnvelope env;
  env.kind = static_cast<TransferKind>(r.u8());
  env.body = r.bytes();
  env.mutexes = r.bytes();
  r.expect_done();
  return env;
}

}  // namespace joshua
