#include "pvfs/metadata.h"

#include <gtest/gtest.h>

namespace {

using namespace pvfs;

class MetadataTest : public ::testing::Test {
 protected:
  MdResponse mkdir(Handle dir, const std::string& name) {
    MdRequest req;
    req.op = MdOp::kMkdir;
    req.dir = dir;
    req.name = name;
    req.mode = 0755;
    return md.apply_typed(req);
  }
  MdResponse create(Handle dir, const std::string& name) {
    MdRequest req;
    req.op = MdOp::kCreate;
    req.dir = dir;
    req.name = name;
    return md.apply_typed(req);
  }
  MdResponse lookup(Handle dir, const std::string& name) {
    MdRequest req;
    req.op = MdOp::kLookup;
    req.dir = dir;
    req.name = name;
    return md.apply_typed(req);
  }
  MdResponse remove(Handle dir, const std::string& name) {
    MdRequest req;
    req.op = MdOp::kRemove;
    req.dir = dir;
    req.name = name;
    return md.apply_typed(req);
  }
  MetadataServer md;
};

TEST_F(MetadataTest, RootExists) {
  EXPECT_EQ(md.resolve("/"), kRootHandle);
  auto attr = md.attr_of(kRootHandle);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->type, ObjType::kDirectory);
  EXPECT_EQ(md.object_count(), 1u);
}

TEST_F(MetadataTest, CreateLookupRoundTrip) {
  MdResponse created = create(kRootHandle, "data.bin");
  ASSERT_EQ(created.status, MdStatus::kOk);
  EXPECT_NE(created.handle, kInvalidHandle);
  MdResponse found = lookup(kRootHandle, "data.bin");
  ASSERT_EQ(found.status, MdStatus::kOk);
  EXPECT_EQ(found.handle, created.handle);
  EXPECT_EQ(found.attr.type, ObjType::kFile);
}

TEST_F(MetadataTest, MkdirAndNesting) {
  MdResponse home = mkdir(kRootHandle, "home");
  ASSERT_EQ(home.status, MdStatus::kOk);
  MdResponse alice = mkdir(home.handle, "alice");
  ASSERT_EQ(alice.status, MdStatus::kOk);
  create(alice.handle, "thesis.tex");
  EXPECT_EQ(md.resolve("/home/alice/thesis.tex"),
            lookup(alice.handle, "thesis.tex").handle);
  EXPECT_EQ(md.resolve("/home/bob"), kInvalidHandle);
}

TEST_F(MetadataTest, DuplicateCreateRejected) {
  ASSERT_EQ(create(kRootHandle, "x").status, MdStatus::kOk);
  EXPECT_EQ(create(kRootHandle, "x").status, MdStatus::kExists);
  EXPECT_EQ(mkdir(kRootHandle, "x").status, MdStatus::kExists);
}

TEST_F(MetadataTest, InvalidNamesRejected) {
  EXPECT_EQ(create(kRootHandle, "").status, MdStatus::kInvalid);
  EXPECT_EQ(create(kRootHandle, ".").status, MdStatus::kInvalid);
  EXPECT_EQ(create(kRootHandle, "..").status, MdStatus::kInvalid);
  EXPECT_EQ(create(kRootHandle, "a/b").status, MdStatus::kInvalid);
}

TEST_F(MetadataTest, LookupErrors) {
  EXPECT_EQ(lookup(kRootHandle, "ghost").status, MdStatus::kNotFound);
  EXPECT_EQ(lookup(999, "x").status, MdStatus::kNotFound);
  Handle file = create(kRootHandle, "f").handle;
  EXPECT_EQ(lookup(file, "x").status, MdStatus::kNotDirectory);
}

TEST_F(MetadataTest, RemoveFileAndEmptyDir) {
  Handle dir = mkdir(kRootHandle, "d").handle;
  create(dir, "f");
  EXPECT_EQ(remove(kRootHandle, "d").status, MdStatus::kNotEmpty);
  EXPECT_EQ(remove(dir, "f").status, MdStatus::kOk);
  EXPECT_EQ(remove(kRootHandle, "d").status, MdStatus::kOk);
  EXPECT_EQ(md.object_count(), 1u) << "only the root remains";
  EXPECT_EQ(remove(kRootHandle, "d").status, MdStatus::kNotFound);
}

TEST_F(MetadataTest, ReaddirSortedWithTypes) {
  mkdir(kRootHandle, "sub");
  create(kRootHandle, "a.txt");
  create(kRootHandle, "b.txt");
  MdRequest req;
  req.op = MdOp::kReaddir;
  req.dir = kRootHandle;
  MdResponse resp = md.apply_typed(req);
  ASSERT_EQ(resp.status, MdStatus::kOk);
  ASSERT_EQ(resp.entries.size(), 3u);
  EXPECT_EQ(resp.entries[0].name, "a.txt");
  EXPECT_EQ(resp.entries[0].type, ObjType::kFile);
  EXPECT_EQ(resp.entries[2].name, "sub");
  EXPECT_EQ(resp.entries[2].type, ObjType::kDirectory);
}

TEST_F(MetadataTest, SetattrBumpsVersionAndMtime) {
  Handle f = create(kRootHandle, "f").handle;
  Attr before = *md.attr_of(f);
  MdRequest req;
  req.op = MdOp::kSetattr;
  req.handle = f;
  req.mode = 0600;
  req.size = 4096;
  MdResponse resp = md.apply_typed(req);
  ASSERT_EQ(resp.status, MdStatus::kOk);
  EXPECT_EQ(resp.attr.mode, 0600u);
  EXPECT_EQ(resp.attr.size, 4096u);
  EXPECT_GT(resp.attr.version, before.version);
  EXPECT_GT(resp.attr.mtime, before.mtime);
}

TEST_F(MetadataTest, RenameMovesAcrossDirectories) {
  Handle src = mkdir(kRootHandle, "src").handle;
  Handle dst = mkdir(kRootHandle, "dst").handle;
  Handle f = create(src, "f").handle;
  MdRequest req;
  req.op = MdOp::kRename;
  req.dir = src;
  req.name = "f";
  req.dir2 = dst;
  req.name2 = "g";
  ASSERT_EQ(md.apply_typed(req).status, MdStatus::kOk);
  EXPECT_EQ(lookup(src, "f").status, MdStatus::kNotFound);
  EXPECT_EQ(lookup(dst, "g").handle, f);
}

TEST_F(MetadataTest, RenameReplacesDestinationFile) {
  Handle f1 = create(kRootHandle, "a").handle;
  create(kRootHandle, "b");
  MdRequest req;
  req.op = MdOp::kRename;
  req.dir = kRootHandle;
  req.name = "a";
  req.dir2 = kRootHandle;
  req.name2 = "b";
  ASSERT_EQ(md.apply_typed(req).status, MdStatus::kOk);
  EXPECT_EQ(lookup(kRootHandle, "b").handle, f1);
  EXPECT_EQ(md.resolve("/a"), kInvalidHandle);
}

TEST_F(MetadataTest, RenameOntoNonEmptyDirRejected) {
  mkdir(kRootHandle, "a");
  Handle b = mkdir(kRootHandle, "b").handle;
  create(b, "inner");
  MdRequest req;
  req.op = MdOp::kRename;
  req.dir = kRootHandle;
  req.name = "a";
  req.dir2 = kRootHandle;
  req.name2 = "b";
  EXPECT_EQ(md.apply_typed(req).status, MdStatus::kNotEmpty);
}

TEST_F(MetadataTest, WireRoundTrips) {
  MdRequest req;
  req.op = MdOp::kRename;
  req.dir = 3;
  req.handle = 4;
  req.dir2 = 5;
  req.name = "old";
  req.name2 = "new";
  req.mode = 0700;
  req.size = 99;
  MdRequest back = net::decode<MdRequest>(net::encode(req));
  EXPECT_EQ(back.op, MdOp::kRename);
  EXPECT_EQ(back.dir2, 5u);
  EXPECT_EQ(back.name2, "new");
  EXPECT_EQ(back.size, 99u);

  MdResponse resp{MdStatus::kOk, 7, {ObjType::kDirectory, 0755, 0, 1, 2, 3},
                  {{"x", 8, ObjType::kFile}}};
  MdResponse rback = net::decode<MdResponse>(net::encode(resp));
  EXPECT_EQ(rback.handle, 7u);
  EXPECT_EQ(rback.attr.type, ObjType::kDirectory);
  ASSERT_EQ(rback.entries.size(), 1u);
  EXPECT_EQ(rback.entries[0].name, "x");
}

TEST_F(MetadataTest, SnapshotRoundTripPreservesEverything) {
  Handle home = mkdir(kRootHandle, "home").handle;
  create(home, "f1");
  create(home, "f2");
  sim::Payload snap = md.snapshot();

  MetadataServer other;
  other.install(snap);
  EXPECT_EQ(other.object_count(), md.object_count());
  EXPECT_EQ(other.resolve("/home/f1"), md.resolve("/home/f1"));
  EXPECT_EQ(other.operations(), md.operations());
  // New handles continue from the same point (determinism preserved).
  MdRequest req;
  req.op = MdOp::kCreate;
  req.dir = kRootHandle;
  req.name = "next";
  Handle h1 = md.apply_typed(req).handle;
  Handle h2 = other.apply_typed(req).handle;
  EXPECT_EQ(h1, h2);
}

TEST_F(MetadataTest, DeterminismTwoServersSameStream) {
  MetadataServer a, b;
  std::vector<MdRequest> stream;
  MdRequest mk;
  mk.op = MdOp::kMkdir;
  mk.dir = kRootHandle;
  mk.name = "d";
  stream.push_back(mk);
  MdRequest cr;
  cr.op = MdOp::kCreate;
  cr.dir = kRootHandle;
  cr.name = "f";
  stream.push_back(cr);
  MdRequest rm;
  rm.op = MdOp::kRemove;
  rm.dir = kRootHandle;
  rm.name = "f";
  stream.push_back(rm);
  for (const MdRequest& r : stream) {
    sim::Payload ra = a.apply(net::encode(r));
    sim::Payload rb = b.apply(net::encode(r));
    EXPECT_EQ(ra, rb) << "responses must be byte-identical";
  }
  EXPECT_EQ(a.snapshot(), b.snapshot()) << "states must be byte-identical";
}

TEST_F(MetadataTest, ReadOnlyClassification) {
  MdRequest look;
  look.op = MdOp::kLookup;
  EXPECT_TRUE(md.is_read_only(net::encode(look)));
  MdRequest rd;
  rd.op = MdOp::kReaddir;
  EXPECT_TRUE(md.is_read_only(net::encode(rd)));
  MdRequest cr;
  cr.op = MdOp::kCreate;
  EXPECT_FALSE(md.is_read_only(net::encode(cr)));
  EXPECT_FALSE(md.is_read_only(sim::Payload{}));
}

TEST_F(MetadataTest, CorruptRequestYieldsInvalid) {
  sim::Payload garbage{0x1};
  MdResponse resp = net::decode<MdResponse>(md.apply(garbage));
  EXPECT_EQ(resp.status, MdStatus::kInvalid);
}

TEST_F(MetadataTest, InstrumentedServerReportsItsWork) {
  telemetry::Registry metrics;
  md.instrument(metrics);

  Handle dir = mkdir(kRootHandle, "a").handle;
  create(dir, "f");
  lookup(dir, "f");
  lookup(dir, "missing");  // error
  MdRequest rd;
  rd.op = MdOp::kReaddir;
  rd.dir = dir;
  md.apply_typed(rd);

  EXPECT_EQ(metrics.find_counter("pvfs.md_ops")->value, 5u);
  EXPECT_EQ(metrics.find_counter("pvfs.md_ops.mkdir")->value, 1u);
  EXPECT_EQ(metrics.find_counter("pvfs.md_ops.create")->value, 1u);
  EXPECT_EQ(metrics.find_counter("pvfs.md_ops.lookup")->value, 2u);
  EXPECT_EQ(metrics.find_counter("pvfs.md_ops.readdir")->value, 1u);
  EXPECT_EQ(metrics.find_counter("pvfs.md_errors")->value, 1u);
  const auto* entries = metrics.find_histogram("pvfs.readdir_entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->data.count, 1u);
  EXPECT_EQ(entries->data.max, 1);  // /a holds exactly one file

  // Snapshot round-trips are counted on both sides.
  sim::Payload snap = md.snapshot();
  MetadataServer other;
  other.instrument(metrics);
  other.install(snap);
  EXPECT_EQ(metrics.find_counter("pvfs.snapshots")->value, 1u);
  EXPECT_EQ(metrics.find_counter("pvfs.snapshot_installs")->value, 1u);
  EXPECT_EQ(metrics.find_histogram("pvfs.snapshot_bytes")->data.count, 1u);
}

TEST_F(MetadataTest, UninstrumentedServerStillWorks) {
  // Default telemetry handles are no-op sinks; behaviour is unchanged.
  Handle dir = mkdir(kRootHandle, "plain").handle;
  EXPECT_NE(dir, kInvalidHandle);
  EXPECT_EQ(lookup(kRootHandle, "plain").handle, dir);
}

}  // namespace
