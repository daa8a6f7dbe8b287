// Byte-stable binary serialization primitives.
//
// The longitudinal fleet service persists simulation state (device
// checkpoints, streaming aggregates) and requires that checkpoint -> resume
// reproduces an uninterrupted run bit for bit. That only works if the
// serialized form is a pure function of the in-memory state: fixed
// little-endian layout regardless of host endianness, doubles stored as their
// exact IEEE-754 bit patterns (never printed and re-parsed), and reads that
// fail loudly on truncation instead of fabricating zeros.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace iw {

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Exact IEEE-754 bit pattern; round-trips NaN payloads and -0.0.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  void clear() { buf_.clear(); }
  /// Pre-sizes the sink for `n` bytes, so a writer of known size (a fixed
  /// record) grows no further.
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential little-endian reader over a caller-owned buffer. Every read
/// validates the remaining length (throws iw::Error on underflow), so a
/// truncated or mismatched checkpoint fails instead of yielding garbage.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  void bytes(void* out, std::size_t n) {
    need(n);
    auto* p = static_cast<std::uint8_t*>(out);
    for (std::size_t i = 0; i < n; ++i) p[i] = data_[pos_ + i];
    pos_ += n;
  }

  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    ensure(n <= data_.size() - pos_, "ByteReader: truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace iw
