#include "gcs/types.h"

namespace gcs {

std::string_view to_string(Delivery level) {
  switch (level) {
    case Delivery::kFifo: return "FIFO";
    case Delivery::kCausal: return "CAUSAL";
    case Delivery::kAgreed: return "AGREED";
    case Delivery::kSafe: return "SAFE";
  }
  return "?";
}

void encode_view(net::Writer& w, const View& view) {
  w.u64(view.id.epoch);
  w.u32(view.id.coordinator);
  w.vec(view.members,
        [](net::Writer& w2, MemberId m) { w2.u32(m); });
}

View decode_view(net::Reader& r) {
  View v;
  v.id.epoch = r.u64();
  v.id.coordinator = r.u32();
  v.members = r.vec<MemberId>([](net::Reader& r2) { return r2.u32(); });
  return v;
}

// Same wire layout as encode_u64_map (count + sorted pairs), so swapping a
// map field for a CutVector does not change a single byte on the wire.
void encode_cut(net::Writer& w, const CutVector& cut) {
  w.u32(static_cast<uint32_t>(cut.size()));
  for (const auto& [k, v] : cut) {
    w.u32(k);
    w.u64(v);
  }
}

void decode_cut_into(net::Reader& r, CutVector& out) {
  uint32_t n = r.u32();
  if (n > r.remaining()) throw net::WireError("cut count exceeds buffer");
  out.clear();
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MemberId k = r.u32();
    out.emplace_back(k, r.u64());
  }
}

void encode_u64_map(net::Writer& w, const std::map<MemberId, uint64_t>& m) {
  w.u32(static_cast<uint32_t>(m.size()));
  for (const auto& [k, v] : m) {
    w.u32(k);
    w.u64(v);
  }
}

std::map<MemberId, uint64_t> decode_u64_map(net::Reader& r) {
  uint32_t n = r.u32();
  std::map<MemberId, uint64_t> out;
  for (uint32_t i = 0; i < n; ++i) {
    MemberId k = r.u32();
    out[k] = r.u64();
  }
  return out;
}

void encode_data_msg(net::Writer& w, const DataMsg& m) {
  w.u32(m.id.sender);
  w.u64(m.id.seq);
  w.u64(m.lamport);
  w.u8(static_cast<uint8_t>(m.level));
  encode_u64_map(w, m.vclock);
  w.bytes(m.payload);
}

DataMsg decode_data_msg(net::Reader& r) {
  DataMsg m;
  m.id.sender = r.u32();
  m.id.seq = r.u64();
  m.lamport = r.u64();
  m.level = static_cast<Delivery>(r.u8());
  m.vclock = decode_u64_map(r);
  m.payload = r.bytes();
  return m;
}

}  // namespace gcs
