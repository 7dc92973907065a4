// Bounds-checked little-endian byte cursors for the P2MDL001 codec.
//
// ByteWriter appends into a growing byte buffer (records are built in
// memory, CRC-stamped, then streamed out); ByteReader walks an
// immutable span — a built record or a region of the mapped store — and
// throws util::SerializeError instead of ever reading past the end.
// Values are encoded by memcpy of the native representation; the format
// is defined little-endian, which the codec verifies before it reads or
// writes (big-endian hosts get a typed error rather than
// silently-scrambled models).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "io/format.hpp"
#include "util/serialize.hpp"

namespace p2auth::io {

static_assert(sizeof(double) == 8, "P2MDL001 requires IEEE-754 binary64");

// The format is little-endian on disk; this build writes/reads native
// byte order, so loaders must refuse to run on big-endian hosts.
constexpr bool host_is_little_endian() noexcept {
  return std::endian::native == std::endian::little;
}

class ByteWriter {
 public:
  std::vector<std::uint8_t>& buffer() noexcept { return out_; }
  std::size_t size() const noexcept { return out_.size(); }

  void bytes(const void* p, std::size_t n) {
    // resize + memcpy rather than insert: gcc 12 at -O3 reports a false
    // -Wstringop-overflow for the inlined range insert.
    if (n == 0) return;  // memcpy's pointers must be non-null
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { bytes(&v, sizeof(v)); }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(std::string_view s) { bytes(s.data(), s.size()); }

  // Zero-pads to the next 8-byte boundary (the format's alignment
  // quantum, so every f64 array lands 8-aligned in the file).
  void pad8() {
    while (out_.size() % 8 != 0) out_.push_back(0);
  }

  // Reserves a u64 slot to be patched once its value is known (record
  // and section lengths are written before their contents exist).
  std::size_t reserve_u64() {
    const std::size_t pos = out_.size();
    u64(0);
    return pos;
  }
  void patch_u64(std::size_t pos, std::uint64_t v) {
    std::memcpy(out_.data() + pos, &v, sizeof(v));
  }

 private:
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data,
                      std::string_view what)
      : data_(data), what_(what) {}

  std::size_t offset() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

  [[noreturn]] void fail(util::SerializeErrc code, const char* why) const {
    throw util::SerializeError(
        code, "P2MDL001: " + std::string(why) + " in " + std::string(what_));
  }

  void require(std::size_t n, const char* why) const {
    if (n > remaining()) fail(util::SerializeErrc::kTruncated, why);
  }

  std::uint8_t u8() {
    require(1, "u8 field");
    return data_[pos_++];
  }
  std::uint16_t u16() { return scalar<std::uint16_t>("u16 field"); }
  std::uint32_t u32() { return scalar<std::uint32_t>("u32 field"); }
  std::uint64_t u64() { return scalar<std::uint64_t>("u64 field"); }
  double f64() { return scalar<double>("f64 field"); }

  void skip(std::size_t n, const char* why) {
    require(n, why);
    pos_ += n;
  }

  std::span<const std::uint8_t> bytes(std::size_t n, const char* why) {
    require(n, why);
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::string_view str(std::size_t n, const char* why) {
    const auto s = bytes(n, why);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  // Zero-copy view of `n` 8-byte elements starting at the cursor; the
  // cursor must sit on an 8-aligned address (both within the span and in
  // memory) — that alignment is the format's in-place-use contract.
  template <typename T>
  std::span<const T> aligned_array(std::size_t n, const char* why) {
    static_assert(sizeof(T) == 8 || sizeof(T) == 4);
    if (n > remaining() / sizeof(T)) {
      fail(util::SerializeErrc::kTruncated, why);
    }
    const std::uint8_t* p = data_.data() + pos_;
    if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) != 0 ||
        pos_ % alignof(T) != 0) {
      fail(util::SerializeErrc::kBadAlignment, why);
    }
    pos_ += n * sizeof(T);
    return {reinterpret_cast<const T*>(p), n};
  }

  void skip_pad8(const char* why) {
    while (pos_ % 8 != 0) {
      require(1, why);
      if (data_[pos_] != 0) fail(util::SerializeErrc::kBadValue, why);
      ++pos_;
    }
  }

 private:
  template <typename T>
  T scalar(const char* why) {
    require(sizeof(T), why);
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

}  // namespace p2auth::io
