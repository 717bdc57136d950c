// Byte-level wire format.
//
// Every protocol in the project (gcs, pbs, joshua, rsm, pvfs) serializes its
// messages to real byte buffers, so the network model charges serialization
// time for the actual encoded size and tests can round-trip encodings.
//
// Each message type states its layout once, as a field list that both the
// encoder and the decoder run:
//
//   template <class Ar> void fields(Ar& ar, Msg& m) {
//     ar.tag(Op::kMsg);  // type byte: written, or read and checked
//     ar(m.id, m.name, m.items);
//   }
//
// Writer and Reader map each C++ type to its wire form:
//
//   enum, uint8_t, bool        u8
//   uint32_t / uint64_t        u32 / u64
//   int32_t, int64_t           i64
//   sim::Time, sim::Duration   i64 microseconds
//   std::string, sim::Payload  u32 length, then the bytes
//   std::vector, std::map      u32 count, then the elements (key, value)
//   std::pair                  first, then second
//   a type with fields()       its fields, in order
//   PairsView (read only)      u32 count, then the fixed-width pairs
//
// Integers are little-endian fixed width. Every count prefix is capped by the
// bytes left in the buffer. encode() and decode() are the entry points.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/network.h"

namespace net {

using sim::Payload;

/// Thrown by Reader on truncated or malformed input.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// A map whose key is a field of its value, sent as a u32 count and the
/// values alone: the key is not repeated on the wire.
template <class Map, class Key>
struct KeyedValues {
  Map& map;
  Key Map::mapped_type::*key;
};
template <class Map, class Key>
KeyedValues<Map, Key> keyed_values(Map& map, Key Map::mapped_type::*key) {
  return {map, key};
}

namespace detail {
template <class T> struct IsPair : std::false_type {};
template <class A, class B> struct IsPair<std::pair<A, B>> : std::true_type {};
template <class T> struct IsVector : std::false_type {};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type {};
template <class T> struct IsMap : std::false_type {};
template <class K, class V, class C, class A>
struct IsMap<std::map<K, V, C, A>> : std::true_type {};
template <class T> struct IsKeyed : std::false_type {};
template <class M, class K>
struct IsKeyed<KeyedValues<M, K>> : std::true_type {};

template <class T>
constexpr bool kIsTime =
    std::is_same_v<T, sim::Time> || std::is_same_v<T, sim::Duration>;
}  // namespace detail

/// Emits each value's wire form through Out::raw(bytes, n). The one
/// mapping from C++ types to wire forms for both Writer, which copies the
/// bytes, and Sizer, which only counts them.
template <class Out>
class Emitter {
 public:
  void u8(uint8_t v) { out().raw(&v, sizeof v); }
  void u16(uint16_t v) { out().raw(&v, sizeof v); }
  void u32(uint32_t v) { out().raw(&v, sizeof v); }
  void u64(uint64_t v) { out().raw(&v, sizeof v); }
  void i64(int64_t v) { out().raw(&v, sizeof v); }
  void f64(double v) { out().raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    out().raw(s.data(), s.size());
  }

  void bytes(const Payload& b) {
    u32(static_cast<uint32_t>(b.size()));
    out().raw(b.data(), b.size());
  }

  /// Emit each value in its wire form. Flattened: the whole field tree,
  /// down to each field's memcpy, inlines into one function, which keeps
  /// encoding as fast as hand-written code in any translation unit.
  template <class... Ts>
  [[gnu::flatten]] void operator()(const Ts&... values) {
    (put(values), ...);
  }

  /// The type byte that opens a message.
  template <class E>
  void tag(E t) {
    u8(static_cast<uint8_t>(t));
  }

 private:
  Out& out() { return static_cast<Out&>(*this); }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, uint8_t>) {
      static_assert(sizeof(T) == 1, "enums travel as one byte");
      u8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      u32(v);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      u64(v);
    } else if constexpr (std::is_same_v<T, int32_t> ||
                         std::is_same_v<T, int64_t>) {
      i64(v);
    } else if constexpr (detail::kIsTime<T>) {
      i64(v.us);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else if constexpr (std::is_same_v<T, Payload>) {
      bytes(v);
    } else if constexpr (detail::IsPair<T>::value) {
      put(v.first);
      put(v.second);
    } else if constexpr (detail::IsVector<T>::value ||
                         detail::IsMap<T>::value) {
      u32(static_cast<uint32_t>(v.size()));
      for (const auto& item : v) put(item);
    } else if constexpr (detail::IsKeyed<T>::value) {
      u32(static_cast<uint32_t>(v.map.size()));
      for (const auto& item : v.map) put(item.second);
    } else {
      static_assert(std::is_class_v<T>, "no wire form for this type");
      // The field list takes a mutable reference so one list serves both
      // directions; emitting never modifies it.
      fields(*this, const_cast<T&>(v));
    }
  }
};

/// Counts the wire bytes of values without writing them, so a Writer can
/// allocate its buffer once at the exact size.
class Sizer : public Emitter<Sizer> {
 public:
  size_t size() const { return n_; }

 private:
  friend class Emitter<Sizer>;
  void raw(const void*, size_t n) { n_ += n; }
  size_t n_ = 0;
};

/// The wire size of `values`, as Writer would emit them.
template <class... Ts>
size_t wire_size(const Ts&... values) {
  Sizer s;
  s(values...);
  return s.size();
}

class Writer : public Emitter<Writer> {
 public:
  Writer() = default;
  /// Start with room for `bytes`: a Writer that knows its message size
  /// (see wire_size) allocates once.
  explicit Writer(size_t bytes) { reserve(bytes); }

  /// Freeze the built bytes into an immutable shared Payload (no copy). The
  /// Payload keeps the block's Payload::kHeadroom free bytes in front, for
  /// a frame header (Payload::prepend).
  Payload take() {
    Payload p;
    if (len_ != 0) p = Payload(std::move(block_), Payload::kHeadroom, len_);
    block_.reset();
    cap_ = len_ = 0;
    return p;
  }
  size_t size() const { return len_; }

 private:
  friend class Emitter<Writer>;
  // The block is never zero-filled: bytes are written once, in order, and
  // len_ counts them. Appending a field is a bounds check and a memcpy that
  // inlines into every field list; growing stays out of line.
  void raw(const void* p, size_t n) {
    if (n > cap_ - len_) grow(n);
    // p may be null when n is 0.
    if (n != 0) std::memcpy(block_.get() + Payload::kHeadroom + len_, p, n);
    len_ += n;
  }
  [[gnu::noinline]] void grow(size_t n) {
    reserve(std::max(2 * cap_, len_ + n));
  }
  void reserve(size_t cap) {
    auto block = Payload::new_block(Payload::kHeadroom, cap);
    if (len_ != 0)
      std::memcpy(block.get() + Payload::kHeadroom,
                  block_.get() + Payload::kHeadroom, len_);
    block_ = std::move(block);
    cap_ = cap;
  }
  std::shared_ptr<uint8_t[]> block_;
  size_t cap_ = 0;
  size_t len_ = 0;
};

/// A wire vector of fixed-width (A, B) integer pairs, left in the buffer it
/// was read from: Reader checks its count against the bytes and hands out
/// this view instead of copying the pairs out. Valid while that buffer
/// lives. Read-only: it has no Writer form.
template <class A, class B>
class PairsView {
 public:
  static_assert(std::is_unsigned_v<A> && std::is_unsigned_v<B>,
                "a pair view holds fixed-width unsigned integers");
  static constexpr size_t kWidth = sizeof(A) + sizeof(B);

  size_t size() const { return n_; }
  std::pair<A, B> operator[](size_t i) const {
    std::pair<A, B> v;
    std::memcpy(&v.first, p_ + i * kWidth, sizeof(A));
    std::memcpy(&v.second, p_ + i * kWidth + sizeof(A), sizeof(B));
    return v;
  }

 private:
  friend class Reader;
  const uint8_t* p_ = nullptr;
  size_t n_ = 0;
};

namespace detail {
template <class T> struct IsPairsView : std::false_type {};
template <class A, class B>
struct IsPairsView<PairsView<A, B>> : std::true_type {};
}  // namespace detail

class Reader {
 public:
  explicit Reader(const Payload& buf) : buf_(buf) {}

  uint8_t u8() { uint8_t v; raw(&v, sizeof v); return v; }
  uint16_t u16() { uint16_t v; raw(&v, sizeof v); return v; }
  uint32_t u32() { uint32_t v; raw(&v, sizeof v); return v; }
  uint64_t u64() { uint64_t v; raw(&v, sizeof v); return v; }
  int64_t i64() { int64_t v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }
  bool boolean() { return u8() != 0; }

  std::string str() {
    std::string s;
    get(s);
    return s;
  }

  /// Nested message body: a zero-copy slice sharing the parent buffer.
  Payload bytes() {
    uint32_t n = u32();
    check(n);
    Payload b = buf_.slice(pos_, n);
    pos_ += n;
    return b;
  }

  /// Read each value from its wire form, overwriting it. Containers keep
  /// their capacity, so decoding into a reused value does not allocate.
  template <class... Ts>
  void operator()(Ts&&... values) {
    (get(values), ...);
  }

  /// Read the type byte that opens a message; throws unless it is `t`.
  template <class E>
  void tag(E t) {
    if (u8() != static_cast<uint8_t>(t))
      throw WireError("unexpected message type");
  }

  size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

  /// Throws unless the whole buffer was consumed (catches format drift).
  void expect_done() const {
    if (!done()) throw WireError("trailing bytes after message");
  }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, uint8_t>) {
      static_assert(sizeof(T) == 1, "enums travel as one byte");
      v = static_cast<T>(u8());
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      v = u32();
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      v = u64();
    } else if constexpr (std::is_same_v<T, int32_t> ||
                         std::is_same_v<T, int64_t>) {
      v = static_cast<T>(i64());
    } else if constexpr (detail::kIsTime<T>) {
      v = T{i64()};
    } else if constexpr (std::is_same_v<T, std::string>) {
      uint32_t n = u32();
      check(n);
      v.assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
      pos_ += n;
    } else if constexpr (std::is_same_v<T, Payload>) {
      v = bytes();
    } else if constexpr (detail::IsPair<T>::value) {
      get(v.first);
      get(v.second);
    } else if constexpr (detail::IsPairsView<T>::value) {
      uint32_t n = count();
      check(size_t{n} * T::kWidth);
      v.p_ = buf_.data() + pos_;
      v.n_ = n;
      pos_ += size_t{n} * T::kWidth;
    } else if constexpr (detail::IsVector<T>::value) {
      v.resize(count());
      for (auto& item : v) get(item);
    } else if constexpr (detail::IsMap<T>::value) {
      uint32_t n = count();
      v.clear();
      for (uint32_t i = 0; i < n; ++i) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        get(key);
        get(value);
        v.insert_or_assign(v.end(), std::move(key), std::move(value));
      }
    } else if constexpr (detail::IsKeyed<T>::value) {
      uint32_t n = count();
      v.map.clear();
      for (uint32_t i = 0; i < n; ++i) {
        typename std::remove_reference_t<decltype(v.map)>::mapped_type value{};
        get(value);
        auto key = value.*v.key;
        v.map.insert_or_assign(v.map.end(), key, std::move(value));
      }
    } else {
      static_assert(std::is_class_v<T>, "no wire form for this type");
      fields(*this, v);
    }
  }

  /// An element count; it can never exceed the bytes left.
  uint32_t count() {
    uint32_t n = u32();
    if (n > remaining()) throw WireError("count exceeds buffer");
    return n;
  }
  void check(size_t n) const {
    if (n > remaining()) throw WireError("read past end of buffer");
  }
  void raw(void* p, size_t n) {
    check(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  const Payload& buf_;
  size_t pos_ = 0;
};

/// The wire bytes of `values`, one after the other (usually one message),
/// written into a buffer allocated once at the exact size.
template <class... Ts>
Payload encode(const Ts&... values) {
  Writer w(wire_size(values...));
  w(values...);
  return w.take();
}

namespace detail {
/// Writes a frame header into a fixed array of Payload::kHeadroom bytes.
class HeadWriter : public Emitter<HeadWriter> {
 public:
  const uint8_t* data() const { return buf_; }
  size_t size() const { return len_; }

 private:
  friend class Emitter<HeadWriter>;
  void raw(const void* p, size_t n) {
    if (n > sizeof buf_ - len_)
      throw std::length_error("frame header exceeds the headroom");
    if (n != 0) std::memcpy(buf_ + len_, p, n);
    len_ += n;
  }
  uint8_t buf_[Payload::kHeadroom] = {};
  size_t len_ = 0;
};
}  // namespace detail

/// The bytes encode(head..., body) gives: the header fields, then `body` as
/// a length-prefixed field. The header is written in place in front of the
/// body when the body's block is its own (Payload::prepend), so the body is
/// not copied; it must fit in Payload::kHeadroom.
template <class... Ts>
Payload wrap(Payload body, const Ts&... head) {
  detail::HeadWriter w;
  w(head...);
  w.u32(static_cast<uint32_t>(body.size()));
  return std::move(body).prepend(w.data(), w.size());
}

/// Decode a whole buffer into `into`, reusing its storage. Throws WireError
/// on a wrong type byte, truncation or trailing bytes; `into` is then
/// partly overwritten.
template <class T>
void decode(const Payload& buf, T& into) {
  Reader r(buf);
  r(into);
  r.expect_done();
}

template <class T>
T decode(const Payload& buf) {
  T msg{};
  decode(buf, msg);
  return msg;
}

/// A message's type byte, read without decoding it.
template <class E>
E peek_tag(const Payload& buf) {
  if (buf.empty()) throw WireError("empty message");
  return static_cast<E>(buf[0]);
}

}  // namespace net
