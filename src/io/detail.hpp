// The registry-layout parser MappedRegistry::open sits on, shared with
// binary.cpp (where the header and index codecs live) and with tests that
// need record offsets to corrupt a store on purpose.  Not part of the
// public io API surface.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "io/format.hpp"

namespace p2auth::io::detail {

struct RegistryLayout {
  struct Entry {
    std::uint64_t hash = 0;    // fnv1a64(name), as stored in the index
    std::uint64_t offset = 0;  // record offset from the file start
    std::uint64_t len = 0;     // record length in bytes
    std::string_view name;     // borrows the index name blob
  };
  std::vector<Entry> entries;
};

// Validates the file header + name index of a registry image (header
// fields, index CRC, per-entry bounds, duplicate names) and returns the
// record table.  Entry names borrow `file` — it must stay alive.
// Touches only the header and index bytes, never the records, so an
// mmap-backed caller keeps the record arena cold.  Throws
// util::SerializeError.
RegistryLayout parse_registry_layout(std::span<const std::uint8_t> file);

}  // namespace p2auth::io::detail
