// Immutable, cheaply shareable byte buffer.
//
// Payload is the unit of data carried by every simulated packet and stored in
// every retention log. It used to be a plain std::vector<uint8_t>, which made
// a broadcast to N hosts cost N full buffer copies; now the bytes live in one
// shared, immutable allocation and a Payload is a (refcounted owner, span)
// view onto it. Copying a Payload bumps a refcount; slicing (net::Reader
// extracting a nested message body) shares the parent's storage with zero
// copies.
//
// The storage is one heap block (refcount and bytes together, not
// zero-filled): net::Writer writes each message into it exactly once, after
// kHeadroom free bytes. prepend() puts a frame header into the free bytes
// before the view when this view is the block's only owner, so wrapping a
// body in a frame (and re-wrapping it on a relay) does not copy the body.
// Bytes another live Payload can see are never changed; raw pointers into a
// block (data(), net::PairsView) are valid only while the Payload they came
// from lives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <utility>

namespace sim {

class Payload {
 public:
  using value_type = uint8_t;
  using const_iterator = const uint8_t*;

  /// Free bytes net::Writer leaves before each message for frame headers.
  static constexpr size_t kHeadroom = 16;

  Payload() = default;

  Payload(std::initializer_list<uint8_t> init)
      : Payload(init.begin(), init.end()) {}

  Payload(size_t n, uint8_t fill) {
    if (n != 0) std::memset(allocate(0, n), fill, n);
  }

  template <std::forward_iterator It>
  Payload(It first, It last) {
    const size_t n = static_cast<size_t>(std::distance(first, last));
    if (n != 0) std::copy(first, last, allocate(0, n));
  }

  /// A view of `size` bytes at `offset` in `block` (net::Writer's result).
  Payload(std::shared_ptr<uint8_t[]> block, size_t offset, size_t size)
      : owner_(std::move(block)), data_(owner_.get() + offset), size_(size) {}

  /// An uninitialized block of `headroom + size` bytes.
  static std::shared_ptr<uint8_t[]> new_block(size_t headroom, size_t size) {
    return std::make_shared_for_overwrite<uint8_t[]>(headroom + size);
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  uint8_t front() const { return data_[0]; }
  uint8_t back() const { return data_[size_ - 1]; }

  /// Sub-range view sharing this payload's storage (no copy). The slice
  /// keeps the whole underlying buffer alive.
  Payload slice(size_t offset, size_t len) const {
    Payload p;
    p.owner_ = owner_;
    p.data_ = data_ + offset;
    p.size_ = len;
    return p;
  }

  /// `head` (n bytes) followed by this view's bytes. Written in place into
  /// the free bytes before the view when this is the block's only owner
  /// and there is room; otherwise copied, header and body, into one fresh
  /// block with kHeadroom of its own.
  Payload prepend(const void* head, size_t n) && {
    if (owner_ && owner_.use_count() == 1 &&
        static_cast<size_t>(data_ - owner_.get()) >= n) {
      uint8_t* at = owner_.get() + (data_ - owner_.get()) - n;
      std::memcpy(at, head, n);
      data_ = at;
      size_ += n;
      return std::move(*this);
    }
    Payload p;
    uint8_t* out = p.allocate(kHeadroom, n + size_);
    std::memcpy(out, head, n);
    if (size_ != 0) std::memcpy(out + n, data_, size_);
    return p;
  }

  /// Shrinking narrows the view in O(1); growing copies into fresh storage
  /// (zero-filled tail), which only tests exercise.
  void resize(size_t n) {
    if (n <= size_) {
      size_ = n;
      return;
    }
    Payload p;
    uint8_t* out = p.allocate(0, n);
    if (size_ != 0) std::memcpy(out, data_, size_);
    std::memset(out + size_, 0, n - size_);
    *this = std::move(p);
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    if (a.size_ != b.size_) return false;
    if (a.size_ == 0 || a.data_ == b.data_) return true;
    return std::memcmp(a.data_, b.data_, a.size_) == 0;
  }
  friend bool operator!=(const Payload& a, const Payload& b) {
    return !(a == b);
  }

 private:
  /// Own a fresh block of `headroom + n` bytes, viewing its last n; the
  /// caller fills them.
  uint8_t* allocate(size_t headroom, size_t n) {
    owner_ = new_block(headroom, n);
    data_ = owner_.get() + headroom;
    size_ = n;
    return owner_.get() + headroom;
  }

  std::shared_ptr<uint8_t[]> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sim
