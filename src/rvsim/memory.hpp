// Byte-addressable simulated memory with bounds checking.
//
// The scalar load/store accessors are inlined here because they sit on the
// interpreter's per-instruction hot path. Stores additionally notify
// registered write observers (the decode caches) when they overlap a watched
// range, which costs a single compare on the common no-overlap path.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace iw::rv {

class Memory {
 public:
  /// Gets told about every store overlapping its watched range; used by the
  /// decode cache to invalidate stale pre-decoded instructions.
  class WriteObserver {
   public:
    virtual ~WriteObserver() = default;
    /// `addr`/`len` describe the byte range just written.
    virtual void on_write(std::uint32_t addr, std::uint32_t len) = 0;
  };

  explicit Memory(std::size_t size_bytes);

  std::size_t size() const { return size_; }

  std::uint8_t load8(std::uint32_t addr) const {
    check(addr, 1);
    return bytes_[addr];
  }
  std::uint16_t load16(std::uint32_t addr) const {
    check(addr, 2);
    std::uint16_t v;
    std::memcpy(&v, bytes_.get() + addr, 2);
    return v;
  }
  std::uint32_t load32(std::uint32_t addr) const {
    check(addr, 4);
    std::uint32_t v;
    std::memcpy(&v, bytes_.get() + addr, 4);
    return v;
  }
  void store8(std::uint32_t addr, std::uint8_t value) {
    check(addr, 1);
    bytes_[addr] = value;
    notify_write(addr, 1);
  }
  void store16(std::uint32_t addr, std::uint16_t value) {
    check(addr, 2);
    std::memcpy(bytes_.get() + addr, &value, 2);
    notify_write(addr, 2);
  }
  void store32(std::uint32_t addr, std::uint32_t value) {
    check(addr, 4);
    std::memcpy(bytes_.get() + addr, &value, 4);
    notify_write(addr, 4);
  }

  /// Bulk copies used by loaders and kernel runners: one range check plus a
  /// single block copy instead of a checked store per word.
  void write_block(std::uint32_t addr, std::span<const std::uint8_t> data);
  void write_words(std::uint32_t addr, std::span<const std::uint32_t> words);
  void write_words(std::uint32_t addr, std::span<const std::int32_t> words);
  std::vector<std::int32_t> read_words_i32(std::uint32_t addr, std::size_t count) const;
  std::vector<float> read_words_f32(std::uint32_t addr, std::size_t count) const;
  void write_words_f32(std::uint32_t addr, std::span<const float> words);

  /// Registers `observer` for stores overlapping `[lo, hi)`. The observer is
  /// not owned and must outlive the registration.
  void add_write_observer(WriteObserver* observer, std::uint32_t lo, std::uint32_t hi);
  void remove_write_observer(WriteObserver* observer);
  /// Replaces the watched range of an already registered observer.
  void set_observed_range(WriteObserver* observer, std::uint32_t lo, std::uint32_t hi);

 private:
  struct Watch {
    WriteObserver* observer;
    std::uint32_t lo;
    std::uint32_t hi;
  };

  void check(std::uint32_t addr, std::uint32_t size) const {
    if (static_cast<std::uint64_t>(addr) + size > size_) {
      fail("Memory access out of bounds");
    }
    if (addr % size != 0) fail("Misaligned memory access");
  }
  /// Word-aligned variant for the bulk word accessors.
  void check_words(std::uint32_t addr, std::size_t count) const {
    if (static_cast<std::uint64_t>(addr) + 4 * static_cast<std::uint64_t>(count) >
        size_) {
      fail("Memory access out of bounds");
    }
    if (addr % 4 != 0) fail("Misaligned memory access");
  }
  void notify_write(std::uint32_t addr, std::uint32_t len) {
    // watch_hi_ is 0 when nothing is observed, so this is one compare on the
    // store fast path.
    if (addr < watch_hi_) dispatch_write(addr, len);
  }
  void dispatch_write(std::uint32_t addr, std::uint32_t len);

  /// Releases the zero-filled mapping behind bytes_.
  struct Unmap {
    std::size_t size;
    void operator()(std::uint8_t* bytes) const;
  };

  std::size_t size_ = 0;
  std::unique_ptr<std::uint8_t[], Unmap> bytes_;
  std::vector<Watch> watches_;
  std::uint32_t watch_hi_ = 0;  // max over watches_[i].hi
};

}  // namespace iw::rv
