// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
//
// The integrity check of both on-disk formats: the P2MDL001 model store
// (src/io) and the P2AUDT01 audit log (src/obs).  Its values are stored
// in those files, so the function must never change.
#pragma once

#include <cstdint>
#include <span>

namespace p2auth::util {

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace p2auth::util
