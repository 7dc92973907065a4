#include "io/mmap_registry.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define P2AUTH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define P2AUTH_HAVE_MMAP 0
#endif

namespace p2auth::io {

namespace {

using util::SerializeErrc;
using util::SerializeError;

[[noreturn]] void fail_io(const std::string& what) {
  throw SerializeError(SerializeErrc::kIoError, "P2MDL001: " + what);
}

}  // namespace

// ---- MappedFile -------------------------------------------------------

MappedFile::~MappedFile() {
#if P2AUTH_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
#if P2AUTH_HAVE_MMAP
    if (mapped_ && data_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
    }
#endif
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile MappedFile::open(const std::string& path) {
  MappedFile f;
#if P2AUTH_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail_io("cannot open " + path + ": " + std::strerror(errno));
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail_io("cannot stat " + path + ": " + std::strerror(err));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      fail_io("cannot mmap " + path + ": " + std::strerror(err));
    }
    f.data_ = static_cast<const std::uint8_t*>(p);
    f.mapped_ = true;
  }
  f.size_ = size;
  ::close(fd);  // the mapping outlives the descriptor
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_io("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0) fail_io("cannot size " + path);
  f.fallback_.resize(static_cast<std::size_t>(end));
  if (!f.fallback_.empty() &&
      !in.read(reinterpret_cast<char*>(f.fallback_.data()),
               static_cast<std::streamsize>(f.fallback_.size()))) {
    fail_io("read failed: " + path);
  }
  f.data_ = f.fallback_.data();
  f.size_ = f.fallback_.size();
#endif
  return f;
}

// ---- MappedRegistry ---------------------------------------------------

MappedRegistry MappedRegistry::open(const std::string& path) {
  MappedRegistry reg;
  reg.file_ = MappedFile::open(path);
  reg.layout_ = detail::parse_registry_layout(reg.file_.bytes());

  // Next power of two >= 2N slots (minimum 2) keeps the load factor
  // at or below 0.5, so linear probes stay short.
  std::size_t slot_count = 2;
  while (slot_count < reg.layout_.entries.size() * 2) slot_count *= 2;
  reg.slots_.assign(slot_count, 0);
  reg.slot_mask_ = slot_count - 1;
  for (std::size_t i = 0; i < reg.layout_.entries.size(); ++i) {
    std::uint64_t slot = reg.layout_.entries[i].hash & reg.slot_mask_;
    while (reg.slots_[static_cast<std::size_t>(slot)] != 0) {
      slot = (slot + 1) & reg.slot_mask_;
    }
    reg.slots_[static_cast<std::size_t>(slot)] =
        static_cast<std::uint32_t>(i + 1);
  }
  return reg;
}

std::size_t MappedRegistry::lookup(std::string_view name) const noexcept {
  if (layout_.entries.empty()) return npos;
  const std::uint64_t hash = fnv1a64(name);
  std::uint64_t slot = hash & slot_mask_;
  while (true) {
    const std::uint32_t v = slots_[static_cast<std::size_t>(slot)];
    if (v == 0) return npos;
    const detail::RegistryLayout::Entry& e = layout_.entries[v - 1];
    if (e.hash == hash && e.name == name) return v - 1;
    slot = (slot + 1) & slot_mask_;
  }
}

bool MappedRegistry::contains(std::string_view name) const noexcept {
  return lookup(name) != npos;
}

std::vector<std::string_view> MappedRegistry::names() const {
  std::vector<std::string_view> out;
  out.reserve(layout_.entries.size());
  for (const auto& e : layout_.entries) out.push_back(e.name);
  return out;
}

std::span<const std::uint8_t> MappedRegistry::record_bytes(
    std::size_t entry) const {
  const detail::RegistryLayout::Entry& e = layout_.entries[entry];
  return file_.bytes().subspan(static_cast<std::size_t>(e.offset),
                               static_cast<std::size_t>(e.len));
}

core::EnrolledUser MappedRegistry::materialize(std::string_view name) const {
  const std::size_t i = lookup(name);
  if (i == npos) {
    throw std::invalid_argument("MappedRegistry: unknown user '" +
                                std::string(name) + "'");
  }
  return materialize_user(parse_user_record(record_bytes(i)));
}

void MappedRegistry::verify_all() const {
  for (std::size_t i = 0; i < layout_.entries.size(); ++i) {
    parse_user_record(record_bytes(i));
  }
}

core::UserRegistry load_user_registry_binary_file(const std::string& path) {
  const MappedRegistry store = MappedRegistry::open(path);
  core::UserRegistry registry;
  for (const std::string_view name : store.names()) {
    registry.add(std::string(name), store.materialize(name));
  }
  return registry;
}

}  // namespace p2auth::io
