// Typed errors of the model store.
//
// Enrolled models must persist across reboots of the wearable/phone; the
// binary `P2MDL001` store in src/io/ is the only format they are written
// in.  Its reader, and the from_parts validators of the model classes it
// feeds, parse untrusted bytes: a corrupted or hostile store must fail
// with the typed error below, never crash, hang or OOM.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace p2auth::util {

// What went wrong while (de)serializing a model store, so callers can
// switch on the cause without string-matching messages.
enum class SerializeErrc {
  kTruncated,       // stream ended inside a field / record
  kBadTag,          // section/record tag mismatch
  kBadValue,        // value failed numeric validation
  kBadMagic,        // file does not start with the format magic
  kVersionSkew,     // format version not understood by this build
  kBadCrc,          // integrity trailer mismatch (bytes were modified)
  kBadShape,        // structurally valid but internally inconsistent
  kDuplicateName,   // registry contains the same user name twice
  kBadAlignment,    // section violates the 8-byte layout contract
  kIoError,         // underlying file open/read/write/map failure
};

// Human-readable slug for an error code ("truncated", "bad-crc", ...).
std::string_view serialize_errc_slug(SerializeErrc code) noexcept;

// Typed error thrown by every model (de)serialization path.  Derives
// from std::runtime_error so pre-existing catch sites keep working.
class SerializeError : public std::runtime_error {
 public:
  SerializeError(SerializeErrc code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  SerializeErrc code() const noexcept { return code_; }

 private:
  SerializeErrc code_;
};

}  // namespace p2auth::util
