// PVFS-style file system metadata service.
//
// The paper names the PVFS metadata server as the next target for the same
// symmetric active/active treatment (Sections 1 and 6; the ARES 2006
// companion paper). This is that service: a deterministic namespace server
// (handles, directories, attributes) that plugs into rsm::ReplicaNode.
// Data servers (file contents) are out of scope -- PVFS separates them
// from metadata exactly so the metadata server can be treated this way.
//
// Determinism notes: handles come from a counter, timestamps are logical
// (the operation sequence number), so N replicas fed the same ordered
// request stream stay bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rsm/replicated_service.h"
#include "telemetry/metrics.h"

namespace pvfs {

using Handle = uint64_t;
constexpr Handle kInvalidHandle = 0;
constexpr Handle kRootHandle = 1;

enum class ObjType : uint8_t { kDirectory = 1, kFile = 2 };

enum class MdStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kExists = 2,
  kNotDirectory = 3,
  kNotEmpty = 4,
  kInvalid = 5,
};

std::string_view to_string(MdStatus s);

struct Attr {
  ObjType type = ObjType::kFile;
  uint32_t mode = 0644;
  uint64_t size = 0;
  uint64_t ctime = 0;  ///< logical creation time (operation seq)
  uint64_t mtime = 0;  ///< logical modification time
  uint64_t version = 0;
  bool operator==(const Attr&) const = default;
};

enum class MdOp : uint8_t {
  kLookup = 1,   ///< (dir, name) -> handle
  kCreate = 2,   ///< (dir, name, mode) -> handle         [file]
  kMkdir = 3,    ///< (dir, name, mode) -> handle         [directory]
  kRemove = 4,   ///< (dir, name); directories must be empty
  kReaddir = 5,  ///< dir -> sorted entry list
  kGetattr = 6,  ///< handle -> Attr
  kSetattr = 7,  ///< (handle, mode, size) -> Attr
  kRename = 8,   ///< (src dir, src name, dst dir, dst name)
};

struct MdRequest {
  MdOp op = MdOp::kLookup;
  Handle dir = kInvalidHandle;
  Handle handle = kInvalidHandle;   // getattr/setattr target
  Handle dir2 = kInvalidHandle;     // rename destination dir
  std::string name;
  std::string name2;                // rename destination name
  uint32_t mode = 0644;
  uint64_t size = 0;
  bool operator==(const MdRequest&) const = default;
};

struct MdEntry {
  std::string name;
  Handle handle = kInvalidHandle;
  ObjType type = ObjType::kFile;
  bool operator==(const MdEntry&) const = default;
};

struct MdResponse {
  MdStatus status = MdStatus::kOk;
  Handle handle = kInvalidHandle;
  Attr attr;
  std::vector<MdEntry> entries;
  bool operator==(const MdResponse&) const = default;
};

// -- wire layouts (net/wire.h) ------------------------------------------------

template <class Ar> void fields(Ar& ar, Attr& a) {
  ar(a.type, a.mode, a.size, a.ctime, a.mtime, a.version);
}
template <class Ar> void fields(Ar& ar, MdRequest& m) {
  ar(m.op, m.dir, m.handle, m.dir2, m.name, m.name2, m.mode, m.size);
}
template <class Ar> void fields(Ar& ar, MdEntry& e) {
  ar(e.name, e.handle, e.type);
}
template <class Ar> void fields(Ar& ar, MdResponse& m) {
  ar(m.status, m.handle, m.attr, m.entries);
}

/// The metadata server itself: deterministic, snapshot-able.
class MetadataServer : public rsm::IDeterministicService {
 public:
  MetadataServer();

  // rsm::IDeterministicService:
  sim::Payload apply(const sim::Payload& request) override;
  sim::Payload snapshot() const override;
  void install(const sim::Payload& snapshot) override;
  bool is_read_only(const sim::Payload& request) const override;
  sim::Duration apply_cost(const sim::Payload& request) const override;

  /// Typed entry point (also used directly by unit tests).
  MdResponse apply_typed(const MdRequest& request);

  /// Register this server's metrics (pvfs.* counters/gauge/histograms) with
  /// a registry. Optional: un-instrumented servers pay nothing (default
  /// handles are no-op sinks). The registry aggregates across replicas, so
  /// N instrumented replicas applying the same ordered stream report N
  /// times the single-server op counts -- itself a cheap replication check.
  void instrument(telemetry::Registry& metrics);

  // -- introspection ---------------------------------------------------------
  size_t object_count() const { return state_.objects.size(); }
  uint64_t operations() const { return state_.op_counter; }
  /// Resolve an absolute slash path; kInvalidHandle when missing.
  Handle resolve(const std::string& path) const;
  std::optional<Attr> attr_of(Handle h) const;

 private:
  struct Object {
    Attr attr;
    std::map<std::string, Handle> entries;  ///< directories only
    template <class Ar> friend void fields(Ar& ar, Object& o) {
      ar(o.attr, o.entries);
    }
  };
  /// Everything a snapshot carries.
  struct State {
    std::map<Handle, Object> objects;
    Handle next_handle = kRootHandle + 1;
    uint64_t op_counter = 0;
    template <class Ar> friend void fields(Ar& ar, State& s) {
      ar(s.next_handle, s.op_counter, s.objects);
    }
  };

  MdResponse lookup(const MdRequest&) const;
  MdResponse create(const MdRequest&, ObjType type);
  MdResponse remove(const MdRequest&);
  MdResponse readdir(const MdRequest&) const;
  MdResponse getattr(const MdRequest&) const;
  MdResponse setattr(const MdRequest&);
  MdResponse rename(const MdRequest&);

  const Object* find(Handle h) const;
  Object* find(Handle h);
  static bool valid_name(const std::string& name);

  State state_;

  // Telemetry handles (no-op sinks until instrument() is called). Indexed
  // by MdOp value; slot 0 backs out-of-range ops.
  telemetry::Counter m_ops_;
  telemetry::Counter m_errors_;
  std::array<telemetry::Counter, 9> m_ops_by_kind_;
  telemetry::Gauge m_objects_;
  telemetry::Histogram m_readdir_entries_;
  // snapshot() is const but still worth counting: state transfers are the
  // expensive rsm path.
  mutable telemetry::Counter m_snapshots_;
  mutable telemetry::Histogram m_snapshot_bytes_;
  telemetry::Counter m_installs_;
};

}  // namespace pvfs
