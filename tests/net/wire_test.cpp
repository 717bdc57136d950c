#include "net/wire.h"

#include <gtest/gtest.h>

namespace {

using net::Reader;
using net::WireError;
using net::Writer;

TEST(Wire, ScalarRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);
  sim::Payload buf = w.take();

  Reader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, StringAndBytesRoundTrip) {
  Writer w;
  w.str("hello world");
  w.str("");
  w.str(std::string("\0binary\0", 8));
  w.bytes({1, 2, 3});
  w.bytes({});
  sim::Payload buf = w.take();

  Reader r(buf);
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("\0binary\0", 8));
  EXPECT_EQ(r.bytes(), (sim::Payload{1, 2, 3}));
  EXPECT_EQ(r.bytes(), sim::Payload{});
  EXPECT_TRUE(r.done());
}

TEST(Wire, VectorRoundTrip) {
  Writer w;
  std::vector<uint32_t> values{1, 2, 3, 4};
  w(values);
  sim::Payload buf = w.take();

  Reader r(buf);
  std::vector<uint32_t> back;
  r(back);
  EXPECT_EQ(back, values);
}

TEST(Wire, TruncatedReadThrows) {
  Writer w;
  w.u64(42);
  sim::Payload buf = w.take();
  buf.resize(4);
  Reader r(buf);
  EXPECT_THROW(r.u64(), WireError);
}

TEST(Wire, TruncatedStringThrows) {
  Writer w;
  w.str("hello");
  sim::Payload buf = w.take();
  buf.resize(6);  // length prefix says 5 but only 2 bytes remain
  Reader r(buf);
  EXPECT_THROW(r.str(), WireError);
}

TEST(Wire, InsaneVectorCountRejected) {
  Writer w;
  w.u32(0xffffffff);  // 4 billion elements in a 4-byte buffer
  sim::Payload buf = w.take();
  Reader r(buf);
  std::vector<uint8_t> items;
  EXPECT_THROW(r(items), WireError);
}

TEST(Wire, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  sim::Payload buf = w.take();
  Reader r(buf);
  r.u8();
  EXPECT_THROW(r.expect_done(), WireError);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Wire, EmptyBufferReads) {
  sim::Payload empty;
  Reader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), WireError);
}

}  // namespace
