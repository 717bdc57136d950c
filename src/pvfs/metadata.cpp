#include "pvfs/metadata.h"

#include "net/wire.h"
#include "util/strings.h"

namespace pvfs {

std::string_view to_string(MdStatus s) {
  switch (s) {
    case MdStatus::kOk: return "ok";
    case MdStatus::kNotFound: return "not found";
    case MdStatus::kExists: return "already exists";
    case MdStatus::kNotDirectory: return "not a directory";
    case MdStatus::kNotEmpty: return "directory not empty";
    case MdStatus::kInvalid: return "invalid request";
  }
  return "?";
}

// -- server --------------------------------------------------------------------

MetadataServer::MetadataServer() {
  Object root;
  root.attr.type = ObjType::kDirectory;
  root.attr.mode = 0755;
  state_.objects.emplace(kRootHandle, std::move(root));
}

sim::Payload MetadataServer::apply(const sim::Payload& request) {
  MdRequest req;
  try {
    req = net::decode<MdRequest>(request);
  } catch (const net::WireError&) {
    return net::encode(MdResponse{MdStatus::kInvalid, kInvalidHandle, {}, {}});
  }
  return net::encode(apply_typed(req));
}

MdResponse MetadataServer::apply_typed(const MdRequest& request) {
  ++state_.op_counter;
  MdResponse response{MdStatus::kInvalid, kInvalidHandle, {}, {}};
  switch (request.op) {
    case MdOp::kLookup: response = lookup(request); break;
    case MdOp::kCreate: response = create(request, ObjType::kFile); break;
    case MdOp::kMkdir: response = create(request, ObjType::kDirectory); break;
    case MdOp::kRemove: response = remove(request); break;
    case MdOp::kReaddir: response = readdir(request); break;
    case MdOp::kGetattr: response = getattr(request); break;
    case MdOp::kSetattr: response = setattr(request); break;
    case MdOp::kRename: response = rename(request); break;
  }
  m_ops_.add();
  auto kind = static_cast<size_t>(request.op);
  m_ops_by_kind_[kind < m_ops_by_kind_.size() ? kind : 0].add();
  if (response.status != MdStatus::kOk) m_errors_.add();
  if (request.op == MdOp::kReaddir && response.status == MdStatus::kOk)
    m_readdir_entries_.record(static_cast<int64_t>(response.entries.size()));
  m_objects_.set(static_cast<int64_t>(state_.objects.size()));
  return response;
}

void MetadataServer::instrument(telemetry::Registry& metrics) {
  m_ops_ = metrics.counter("pvfs.md_ops");
  m_errors_ = metrics.counter("pvfs.md_errors");
  static constexpr std::string_view kOpName[] = {
      "other",   "lookup",  "create", "mkdir", "remove",
      "readdir", "getattr", "setattr", "rename"};
  for (size_t i = 0; i < m_ops_by_kind_.size(); ++i) {
    m_ops_by_kind_[i] =
        metrics.counter("pvfs.md_ops." + std::string(kOpName[i]));
  }
  m_objects_ = metrics.gauge("pvfs.objects");
  m_readdir_entries_ = metrics.histogram("pvfs.readdir_entries");
  m_snapshots_ = metrics.counter("pvfs.snapshots");
  m_snapshot_bytes_ = metrics.histogram("pvfs.snapshot_bytes");
  m_installs_ = metrics.counter("pvfs.snapshot_installs");
  m_objects_.set(static_cast<int64_t>(state_.objects.size()));
}

bool MetadataServer::is_read_only(const sim::Payload& request) const {
  if (request.empty()) return false;
  auto op = static_cast<MdOp>(request[0]);
  return op == MdOp::kLookup || op == MdOp::kReaddir || op == MdOp::kGetattr;
}

sim::Duration MetadataServer::apply_cost(const sim::Payload& request) const {
  return is_read_only(request) ? sim::msec(2) : sim::msec(6);
}

const MetadataServer::Object* MetadataServer::find(Handle h) const {
  auto it = state_.objects.find(h);
  return it == state_.objects.end() ? nullptr : &it->second;
}

MetadataServer::Object* MetadataServer::find(Handle h) {
  auto it = state_.objects.find(h);
  return it == state_.objects.end() ? nullptr : &it->second;
}

bool MetadataServer::valid_name(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos;
}

MdResponse MetadataServer::lookup(const MdRequest& req) const {
  const Object* dir = find(req.dir);
  if (dir == nullptr) return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  if (dir->attr.type != ObjType::kDirectory)
    return {MdStatus::kNotDirectory, kInvalidHandle, {}, {}};
  auto it = dir->entries.find(req.name);
  if (it == dir->entries.end())
    return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  const Object* target = find(it->second);
  MdResponse resp{MdStatus::kOk, it->second, {}, {}};
  if (target != nullptr) resp.attr = target->attr;
  return resp;
}

MdResponse MetadataServer::create(const MdRequest& req, ObjType type) {
  Object* dir = find(req.dir);
  if (dir == nullptr) return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  if (dir->attr.type != ObjType::kDirectory)
    return {MdStatus::kNotDirectory, kInvalidHandle, {}, {}};
  if (!valid_name(req.name))
    return {MdStatus::kInvalid, kInvalidHandle, {}, {}};
  if (dir->entries.count(req.name))
    return {MdStatus::kExists, kInvalidHandle, {}, {}};

  Handle h = state_.next_handle++;
  Object obj;
  obj.attr.type = type;
  obj.attr.mode = req.mode;
  obj.attr.ctime = obj.attr.mtime = state_.op_counter;
  dir->entries.emplace(req.name, h);
  dir->attr.mtime = state_.op_counter;
  ++dir->attr.version;
  MdResponse resp{MdStatus::kOk, h, obj.attr, {}};
  state_.objects.emplace(h, std::move(obj));
  return resp;
}

MdResponse MetadataServer::remove(const MdRequest& req) {
  Object* dir = find(req.dir);
  if (dir == nullptr) return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  if (dir->attr.type != ObjType::kDirectory)
    return {MdStatus::kNotDirectory, kInvalidHandle, {}, {}};
  auto it = dir->entries.find(req.name);
  if (it == dir->entries.end())
    return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  Handle h = it->second;
  const Object* target = find(h);
  if (target != nullptr && target->attr.type == ObjType::kDirectory &&
      !target->entries.empty()) {
    return {MdStatus::kNotEmpty, h, {}, {}};
  }
  dir->entries.erase(it);
  dir->attr.mtime = state_.op_counter;
  ++dir->attr.version;
  state_.objects.erase(h);
  return {MdStatus::kOk, h, {}, {}};
}

MdResponse MetadataServer::readdir(const MdRequest& req) const {
  const Object* dir = find(req.dir);
  if (dir == nullptr) return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  if (dir->attr.type != ObjType::kDirectory)
    return {MdStatus::kNotDirectory, kInvalidHandle, {}, {}};
  MdResponse resp{MdStatus::kOk, req.dir, dir->attr, {}};
  for (const auto& [name, handle] : dir->entries) {
    const Object* child = find(handle);
    resp.entries.push_back(
        {name, handle,
         child != nullptr ? child->attr.type : ObjType::kFile});
  }
  return resp;
}

MdResponse MetadataServer::getattr(const MdRequest& req) const {
  const Object* obj = find(req.handle);
  if (obj == nullptr) return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  return {MdStatus::kOk, req.handle, obj->attr, {}};
}

MdResponse MetadataServer::setattr(const MdRequest& req) {
  Object* obj = find(req.handle);
  if (obj == nullptr) return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  obj->attr.mode = req.mode;
  if (obj->attr.type == ObjType::kFile) obj->attr.size = req.size;
  obj->attr.mtime = state_.op_counter;
  ++obj->attr.version;
  return {MdStatus::kOk, req.handle, obj->attr, {}};
}

MdResponse MetadataServer::rename(const MdRequest& req) {
  Object* src = find(req.dir);
  Object* dst = find(req.dir2);
  if (src == nullptr || dst == nullptr)
    return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  if (src->attr.type != ObjType::kDirectory ||
      dst->attr.type != ObjType::kDirectory)
    return {MdStatus::kNotDirectory, kInvalidHandle, {}, {}};
  if (!valid_name(req.name2))
    return {MdStatus::kInvalid, kInvalidHandle, {}, {}};
  auto it = src->entries.find(req.name);
  if (it == src->entries.end())
    return {MdStatus::kNotFound, kInvalidHandle, {}, {}};
  // POSIX rename replaces an existing destination entry if removable.
  auto dit = dst->entries.find(req.name2);
  if (dit != dst->entries.end()) {
    const Object* existing = find(dit->second);
    if (existing != nullptr && existing->attr.type == ObjType::kDirectory &&
        !existing->entries.empty()) {
      return {MdStatus::kNotEmpty, dit->second, {}, {}};
    }
    state_.objects.erase(dit->second);
    dst->entries.erase(dit);
  }
  Handle h = it->second;
  src->entries.erase(it);
  dst->entries.emplace(req.name2, h);
  src->attr.mtime = state_.op_counter;
  ++src->attr.version;
  dst->attr.mtime = state_.op_counter;
  ++dst->attr.version;
  return {MdStatus::kOk, h, {}, {}};
}

// -- snapshot ------------------------------------------------------------------

sim::Payload MetadataServer::snapshot() const {
  sim::Payload buf = net::encode(state_);
  m_snapshots_.add();
  m_snapshot_bytes_.record(static_cast<int64_t>(buf.size()));
  return buf;
}

void MetadataServer::install(const sim::Payload& snapshot) {
  state_ = net::decode<State>(snapshot);  // throws before any state changes
  m_installs_.add();
  m_objects_.set(static_cast<int64_t>(state_.objects.size()));
}

// -- helpers ------------------------------------------------------------------

Handle MetadataServer::resolve(const std::string& path) const {
  Handle current = kRootHandle;
  for (const std::string& part : jutil::split(path, '/')) {
    if (part.empty()) continue;
    const Object* dir = find(current);
    if (dir == nullptr || dir->attr.type != ObjType::kDirectory)
      return kInvalidHandle;
    auto it = dir->entries.find(part);
    if (it == dir->entries.end()) return kInvalidHandle;
    current = it->second;
  }
  return current;
}

std::optional<Attr> MetadataServer::attr_of(Handle h) const {
  const Object* obj = find(h);
  if (obj == nullptr) return std::nullopt;
  return obj->attr;
}

}  // namespace pvfs
