// Corrupted-store fuzz suite for the P2MDL001 reader.
//
// Contract under corruption: reading either succeeds (a mutation can
// land in a don't-care header byte) or throws util::SerializeError.  It
// must never crash, escape with another exception type, or attempt an
// allocation sized by a corrupted length field.  Every bit flip inside
// the CRC-covered region of a record (or the registry name index) must
// be rejected.
//
// User-level cases mutate one record and read it through the record
// codec (parse_user_record + materialize_user), each from a buffer of
// exactly the mutated length so a sanitizer sees any overread.
// Registry-level cases write each mutated image to a per-process temp
// file and read it the way the service does: MappedRegistry::open, then
// verify_all, then materialize every name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "io/bytes.hpp"
#include "io/format.hpp"
#include "io/mmap_registry.hpp"
#include "io_fixtures.hpp"

namespace p2auth::io {
namespace {

using Bytes = std::vector<std::uint8_t>;
using util::SerializeErrc;
using util::SerializeError;

Bytes user_record() {
  util::Rng rng(77);
  return build_user_record(testing::make_test_user(rng, 9, "0413"));
}

Bytes registry_image() {
  const testing::TempStore tmp("io_fuzz_source");
  save_user_registry_binary_file(testing::make_test_registry(11), tmp.path);
  return testing::read_file_bytes(tmp.path);
}

// Result of one corrupted-read attempt.
enum class Outcome { kLoaded, kTypedError };

Outcome read_record(const Bytes& record) {
  try {
    (void)materialize_user(parse_user_record(record));
    return Outcome::kLoaded;
  } catch (const SerializeError&) {
    return Outcome::kTypedError;
  }
  // Any other exception type propagates and fails the test.
}

// Reads a store image through the mapping; throws what the reader throws.
void read_store_or_throw(const Bytes& image) {
  const testing::TempStore tmp("io_fuzz_image");
  testing::write_file_bytes(tmp.path, image);
  const MappedRegistry store = MappedRegistry::open(tmp.path);
  store.verify_all();
  for (const std::string_view name : store.names()) {
    (void)store.materialize(name);
  }
}

Outcome read_store(const Bytes& image) {
  try {
    read_store_or_throw(image);
    return Outcome::kLoaded;
  } catch (const SerializeError&) {
    return Outcome::kTypedError;
  }
}

void expect_store_error(const Bytes& image, SerializeErrc code,
                        const char* what) {
  try {
    read_store_or_throw(image);
    ADD_FAILURE() << what << " loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), code) << what << ": " << e.what();
  }
}

void expect_record_error(const Bytes& record, SerializeErrc code,
                         const char* what) {
  try {
    (void)materialize_user(parse_user_record(record));
    ADD_FAILURE() << what << " loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), code) << what << ": " << e.what();
  }
}

// Re-stamps a record's CRC trailer after a deliberate field patch, so
// the structural validator (not the CRC) is what rejects the mutation.
void restamp_crc(Bytes& record) {
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(record).first(record.size() -
                                                  kRecordTrailerBytes));
  std::memcpy(record.data() + record.size() - 12, &crc, sizeof(crc));
}

void patch_u32(Bytes& bytes, std::size_t offset, std::uint32_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

void patch_u64(Bytes& bytes, std::size_t offset, std::uint64_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

// ---- truncation -------------------------------------------------------

TEST(IoFuzz, BinaryUserTruncationIsAlwaysTyped) {
  const Bytes good = user_record();
  ASSERT_EQ(read_record(good), Outcome::kLoaded);
  const std::size_t step = std::max<std::size_t>(1, good.size() / 409);
  for (std::size_t len = 0; len < good.size(); len += step) {
    EXPECT_EQ(read_record(Bytes(good.begin(), good.begin() + len)),
              Outcome::kTypedError)
        << "prefix of " << len << " bytes loaded";
  }
  // The last 16 boundaries (inside the CRC trailer) individually.
  for (std::size_t cut = 1; cut <= 16; ++cut) {
    EXPECT_EQ(read_record(Bytes(good.begin(), good.end() - cut)),
              Outcome::kTypedError);
  }
}

TEST(IoFuzz, BinaryRegistryTruncationIsAlwaysTyped) {
  const Bytes good = registry_image();
  ASSERT_EQ(read_store(good), Outcome::kLoaded);
  const std::size_t step = std::max<std::size_t>(1, good.size() / 211);
  for (std::size_t len = 0; len < good.size(); len += step) {
    EXPECT_EQ(read_store(Bytes(good.begin(), good.begin() + len)),
              Outcome::kTypedError)
        << "prefix of " << len << " bytes loaded";
  }
}

// ---- bit flips in the CRC-covered region ------------------------------

TEST(IoFuzz, BinaryUserBitFlipsAreAllRejected) {
  const Bytes good = user_record();
  // Every record byte is CRC-covered, or (the trailer's reserved tail)
  // checked to be zero.
  for (std::size_t i = 0; i < good.size(); ++i) {
    Bytes bad = good;
    bad[i] = static_cast<std::uint8_t>(bad[i] ^ (1u << (i % 8)));
    EXPECT_EQ(read_record(bad), Outcome::kTypedError)
        << "flip at byte " << i << " loaded";
  }
}

TEST(IoFuzz, BinaryRegistryBitFlipsAreAllRejected) {
  const Bytes good = registry_image();
  const std::size_t step = 7;  // records + index; sampled for speed
  for (std::size_t i = kFileHeaderBytes; i < good.size(); i += step) {
    Bytes bad = good;
    bad[i] = static_cast<std::uint8_t>(bad[i] ^ (1u << (i % 8)));
    EXPECT_EQ(read_store(bad), Outcome::kTypedError)
        << "flip at byte " << i << " loaded";
  }
}

// ---- the file header --------------------------------------------------

// Registry header offsets (see io/format.hpp): magic at 0, version at 8,
// kind at 12.
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffKind = 12;

TEST(IoFuzz, BinaryHeaderFieldCorruptionIsTyped) {
  const Bytes good = registry_image();
  for (std::size_t i = 0; i < kFileHeaderBytes; ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      Bytes bad = good;
      bad[i] = static_cast<std::uint8_t>(bad[i] ^ (1u << bit));
      // The reserved u64 is a don't-care and may load; everything else
      // must fail typed.  Either way: no crash, no foreign exception.
      (void)read_store(bad);
    }
  }
  // The validated fields specifically:
  {
    Bytes bad = good;
    bad[0] = 'X';
    expect_store_error(bad, SerializeErrc::kBadMagic, "bad magic");
  }
  {
    Bytes bad = good;
    patch_u32(bad, kOffVersion, 9);
    expect_store_error(bad, SerializeErrc::kVersionSkew, "bad version");
  }
  // Kind 1 (registry) is the only file kind; every other value, 2
  // included, is refused.
  for (const std::uint32_t kind : {0u, 2u, 3u, 0xFFFFFFFFu}) {
    Bytes bad = good;
    patch_u32(bad, kOffKind, kind);
    expect_store_error(bad, SerializeErrc::kBadShape, "unknown file kind");
  }
}

// ---- hostile length fields (CRC re-stamped) ---------------------------

// Record offsets (see io/format.hpp): the record_len field at 8, the
// first section's (USRH) payload_len at 24, and the USRH pin_len 48
// bytes into the section payload (at 80).
constexpr std::size_t kOffRecordLen = 8;
constexpr std::size_t kOffUsrhLen = 24;
constexpr std::size_t kOffPinLen = 80;

TEST(IoFuzz, OversizedRecordLengthRejectedWithoutAllocation) {
  Bytes bad = user_record();
  patch_u64(bad, kOffRecordLen, std::uint64_t{1} << 60);
  restamp_crc(bad);
  expect_record_error(bad, SerializeErrc::kBadShape, "oversized record_len");
}

TEST(IoFuzz, OversizedSectionLengthRejected) {
  Bytes bad = user_record();
  patch_u64(bad, kOffUsrhLen, std::uint64_t{1} << 50);
  restamp_crc(bad);
  expect_record_error(bad, SerializeErrc::kTruncated,
                      "oversized section length");
}

TEST(IoFuzz, OversizedPinLengthRejected) {
  Bytes bad = user_record();
  patch_u64(bad, kOffPinLen, std::uint64_t{1} << 40);
  restamp_crc(bad);
  expect_record_error(bad, SerializeErrc::kBadShape, "oversized pin length");
}

// ---- hostile name index -----------------------------------------------

struct IndexEntry {
  std::uint64_t hash, offset, len, name_off, name_len;
};

// Hand-assembles a registry image holding `n_records` copies of one
// record plus an arbitrary name index — the knob the corruption tests
// turn.
Bytes make_registry_image(std::size_t n_records,
                          const std::vector<IndexEntry>& entries,
                          std::string_view blob) {
  util::Rng rng(5);
  const Bytes record =
      build_user_record(testing::make_test_user(rng, 1, "12"));
  const std::uint64_t index_offset =
      kFileHeaderBytes + n_records * record.size();
  ByteWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(FileKind::kUserRegistry));
  w.u64(entries.size());
  w.u64(index_offset);
  w.u64(0);
  for (std::size_t i = 0; i < n_records; ++i) {
    w.bytes(record.data(), record.size());
  }
  const std::size_t index_start = w.size();
  w.u32(kTagNameIndex);
  w.u32(0);
  const std::size_t len_pos = w.reserve_u64();
  w.u64(entries.size());
  for (const IndexEntry& e : entries) {
    w.u64(e.hash);
    w.u64(e.offset);
    w.u64(e.len);
    w.u64(e.name_off);
    w.u64(e.name_len);
  }
  w.str(blob);
  w.patch_u64(len_pos, w.size() - (len_pos + 8));
  w.pad8();
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
      w.buffer().data() + index_start, w.size() - index_start));
  w.u32(kTagCrcTrailer);
  w.u32(crc);
  w.u64(0);
  return std::move(w.buffer());
}

std::uint64_t record_len_of() {
  util::Rng rng(5);
  return build_user_record(testing::make_test_user(rng, 1, "12")).size();
}

TEST(IoFuzz, DuplicateRegistryNamesRejected) {
  const std::uint64_t len = record_len_of();
  const std::vector<IndexEntry> dup = {
      {fnv1a64("dup"), kFileHeaderBytes, len, 0, 3},
      {fnv1a64("dup"), kFileHeaderBytes + len, len, 0, 3},
  };
  expect_store_error(make_registry_image(2, dup, "dup"),
                     SerializeErrc::kDuplicateName, "duplicate names");
}

TEST(IoFuzz, IndexEntryHashMismatchRejected) {
  const std::uint64_t len = record_len_of();
  const std::vector<IndexEntry> bad = {
      {fnv1a64("eve"), kFileHeaderBytes, len, 0, 3},  // blob says "abc"
  };
  expect_store_error(make_registry_image(1, bad, "abc"),
                     SerializeErrc::kBadValue, "hash mismatch");
}

TEST(IoFuzz, IndexEntrySpanOutOfBoundsRejected) {
  const std::uint64_t len = record_len_of();
  const std::vector<IndexEntry> bad = {
      {fnv1a64("abc"), kFileHeaderBytes + 8 * len, len, 0, 3},
  };
  expect_store_error(make_registry_image(1, bad, "abc"),
                     SerializeErrc::kBadShape, "out-of-bounds record span");
}

}  // namespace
}  // namespace p2auth::io
