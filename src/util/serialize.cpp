#include "util/serialize.hpp"

namespace p2auth::util {

std::string_view serialize_errc_slug(SerializeErrc code) noexcept {
  switch (code) {
    case SerializeErrc::kTruncated: return "truncated";
    case SerializeErrc::kBadTag: return "bad-tag";
    case SerializeErrc::kBadValue: return "bad-value";
    case SerializeErrc::kBadMagic: return "bad-magic";
    case SerializeErrc::kVersionSkew: return "version-skew";
    case SerializeErrc::kBadCrc: return "bad-crc";
    case SerializeErrc::kBadShape: return "bad-shape";
    case SerializeErrc::kDuplicateName: return "duplicate-name";
    case SerializeErrc::kBadAlignment: return "bad-alignment";
    case SerializeErrc::kIoError: return "io-error";
  }
  return "unknown";
}

}  // namespace p2auth::util
