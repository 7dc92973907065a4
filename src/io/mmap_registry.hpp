// Zero-copy, arena-backed registry over a P2MDL001 registry file.
//
// MappedRegistry::open maps the file read-only and parses only the file
// header and the trailing name index — record bytes are untouched, so
// resident memory at open time is bounded by the index, not the store
// (100k users with full models open in milliseconds touching a few
// pages).  Lookups go through an open-addressed hash table built over
// the index; materialize parses a hit's record in place (its arrays are
// spans straight into the mapping) and copies it out.  Per-record CRCs
// are verified lazily, on each materialize (or all at once via
// verify_all()).
//
// On platforms without POSIX mmap the file is read into an owned buffer
// instead; the API and validation behaviour are identical, only the
// paging benefit is lost.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/enrollment.hpp"
#include "io/binary.hpp"
#include "io/detail.hpp"

namespace p2auth::io {

// Read-only view of a whole file, mmap-backed where available.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Maps `path` read-only (falls back to reading it into a buffer on
  // non-POSIX hosts).  Throws util::SerializeError(kIoError) on any
  // filesystem failure.
  static MappedFile open(const std::string& path);

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  // True when the bytes are a real mmap (false on the buffer fallback).
  bool is_mapped() const noexcept { return mapped_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;  // owns the bytes when !mapped_
};

class MappedRegistry {
 public:
  // Opens and indexes a registry file.  Validates the header and the
  // name index (including its CRC) but no record bytes.  Throws
  // util::SerializeError.
  static MappedRegistry open(const std::string& path);

  std::size_t size() const noexcept { return layout_.entries.size(); }
  bool contains(std::string_view name) const noexcept;
  // All user names, in the file's (sorted) index order.  The views
  // borrow the mapping.
  std::vector<std::string_view> names() const;

  // Deep-copies one user out of the mapping into an owning EnrolledUser,
  // CRC-checking and parsing its record first (the first touch of a
  // record is what pages its bytes in).  An unknown name throws
  // std::invalid_argument, same contract as UserRegistry::authenticate's
  // name handling; a damaged record throws util::SerializeError.
  core::EnrolledUser materialize(std::string_view name) const;

  // CRC-checks and structurally parses every record (the full-integrity
  // sweep the lazy default skips).  Throws util::SerializeError on the
  // first bad record.
  void verify_all() const;

  // True when the store is a real mmap (false on the buffer fallback).
  bool is_mapped() const noexcept { return file_.is_mapped(); }

 private:
  MappedRegistry() = default;

  // Returns the entry index for `name`, or npos.
  std::size_t lookup(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::span<const std::uint8_t> record_bytes(std::size_t entry) const;

  MappedFile file_;
  detail::RegistryLayout layout_;  // entry names borrow file_
  // Open-addressed, linear-probe index over layout_.entries: slot holds
  // entry index + 1 (0 = empty).  Sized to the next power of two >= 2N.
  std::vector<std::uint32_t> slots_;
  std::uint64_t slot_mask_ = 0;
};

}  // namespace p2auth::io
