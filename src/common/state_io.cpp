#include "dollymp/common/state_io.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace dollymp {

namespace {

constexpr std::size_t kMagicLen = 9;  // "DMPCKPT01" without the NUL
static_assert(kStateHeaderBytes == kMagicLen + 4 + 8);

// XXH64's primes; the envelope hash is written in-tree, not linked.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

static_assert(std::endian::native == std::endian::little,
              "the writer appends object bytes and the envelope hash loads payload "
              "words, both as little-endian");
static_assert(sizeof(bool) == 1 && sizeof(double) == 8, "StateWriter::fields widths");

[[nodiscard]] std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

[[nodiscard]] std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

/// The envelope's payload hash (see state_io.h).  The four lanes advance
/// independently, so their multiply chains overlap instead of serializing
/// one byte at a time.
[[nodiscard]] std::uint64_t payload_hash(const std::uint8_t* data, std::size_t n) {
  std::uint64_t lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      lanes[k] = lane_round(lanes[k], load_word(data + i + 8 * static_cast<std::size_t>(k)));
    }
  }
  // Fold: each merge is a bijection of its lane given the running value,
  // so a difference in any one lane survives to the result.
  std::uint64_t h = static_cast<std::uint64_t>(n) + kP5;
  for (const std::uint64_t lane : lanes) h = (h ^ lane_round(0, lane)) * kP1 + kP4;
  for (; i < n; ++i) h = std::rotl(h ^ (data[i] * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

// Out of line: with the header size visible at every inlined insert, GCC 12
// reports bogus -Warray-bounds on the first payload write.
StateWriter::StateWriter() : buf_(kStateHeaderBytes) {}

std::vector<std::uint8_t> StateWriter::finish() {
  const std::size_t payload = buf_.size() - kStateHeaderBytes;
  std::memcpy(buf_.data(), kStateMagic, kMagicLen);
  for (int i = 0; i < 4; ++i) {
    buf_[kMagicLen + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(kStateVersion >> (8 * i));
  }
  patch_u64(kMagicLen + 4, payload);
  u64(payload_hash(buf_.data() + kStateHeaderBytes, payload));
  return std::move(buf_);
}

StateReader::StateReader(const std::uint8_t* data, std::size_t size) : data_(data) {
  const std::size_t header = kStateHeaderBytes;
  if (size < header + 8) {
    throw std::runtime_error("snapshot: truncated (shorter than the DMPCKPT01 envelope)");
  }
  if (std::memcmp(data, kStateMagic, kMagicLen) != 0) {
    throw std::runtime_error("snapshot: bad magic (not a DMPCKPT01 snapshot)");
  }
  const std::uint32_t version = get_u32(data + kMagicLen);
  if (version != kStateVersion) {
    throw std::runtime_error("snapshot: unsupported DMPCKPT01 version " +
                             std::to_string(version));
  }
  const std::uint64_t payload = get_u64(data + kMagicLen + 4);
  if (header + payload + 8 != size) {
    throw std::runtime_error("snapshot: truncated or trailing bytes (payload length " +
                             std::to_string(payload) + " does not match file size " +
                             std::to_string(size) + ")");
  }
  const std::uint64_t stored = get_u64(data + header + payload);
  const std::uint64_t computed = payload_hash(data + header, payload);
  if (stored != computed) {
    throw std::runtime_error("snapshot: payload hash mismatch (corrupted snapshot)");
  }
  pos_ = header;
  end_ = header + payload;
}

std::string StateReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::size_t StateReader::count(std::size_t min_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_bytes) {
    throw std::runtime_error("snapshot: element count " + std::to_string(n) +
                             " overruns the remaining " + std::to_string(remaining()) +
                             " payload byte(s)");
  }
  return static_cast<std::size_t>(n);
}

void StateReader::section(std::uint32_t tag) {
  const std::uint32_t got = u32();
  if (got != (0x5EC70000u ^ tag)) {
    throw std::runtime_error("snapshot: expected section tag " + std::to_string(tag) +
                             ", stream is out of sync");
  }
}

void StateReader::expect_done() const {
  if (pos_ != end_) {
    throw std::runtime_error("snapshot: " + std::to_string(end_ - pos_) +
                             " unread payload byte(s) after the last field");
  }
}

void StateReader::need(std::size_t n) const {
  if (end_ - pos_ < n) {
    throw std::runtime_error("snapshot: truncated payload (field overruns the envelope)");
  }
}

void StateReader::check_record_size(std::uint32_t stored, std::size_t expected) {
  if (stored != expected) {
    throw std::runtime_error("snapshot: record size " + std::to_string(stored) +
                             " does not match this build's layout (" +
                             std::to_string(expected) + ")");
  }
}

namespace {

/// The current errno rendered for an exception message ("No space left on
/// device" and friends) — captured immediately, before cleanup syscalls can
/// clobber it.
[[nodiscard]] std::string errno_text() {
  const int err = errno;
  return err != 0 ? std::string(std::strerror(err)) : std::string("unknown error");
}

/// Durability barrier on a stdio stream: flush userspace buffers, then ask
/// the kernel to push the file to stable storage.  Both failures matter for
/// a checkpoint — a short fflush is how a full disk usually surfaces.
void flush_and_sync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    const std::string why = errno_text();
    std::fclose(f);
    throw std::runtime_error("snapshot: short write to " + path +
                             " (disk full?): " + why);
  }
#if defined(_WIN32)
  if (_commit(_fileno(f)) != 0) {
#else
  if (fsync(fileno(f)) != 0) {
#endif
    const std::string why = errno_text();
    std::fclose(f);
    throw std::runtime_error("snapshot: fsync of " + path + " failed: " + why);
  }
}

}  // namespace

void write_state_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  // Atomic publish: write the bytes to a sibling temp file, fsync, then
  // rename over the target.  A crash (or SIGKILL) at any instant leaves
  // either the previous complete file or the new complete file — the
  // supervisor's recovery path depends on never seeing a torn snapshot.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("snapshot: cannot open " + tmp +
                             " for write: " + errno_text());
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (written != bytes.size()) {
    const std::string why = errno_text();
    std::fclose(f);
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: short write to " + tmp + " (" +
                             std::to_string(written) + " of " +
                             std::to_string(bytes.size()) +
                             " bytes, disk full?): " + why);
  }
  flush_and_sync(f, tmp);
  if (std::fclose(f) != 0) {
    const std::string why = errno_text();
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: close of " + tmp + " failed: " + why);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_text();
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: rename " + tmp + " -> " + path +
                             " failed: " + why);
  }
}

std::vector<std::uint8_t> read_state_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("snapshot: cannot open " + path);
  // A directory opens fine on POSIX, and its ftell is no file size: only a
  // regular file's measured length may size the buffer.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    std::fclose(f);
    throw std::runtime_error("snapshot: " + path + " is not a regular file");
  }
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    const std::string why = errno_text();
    std::fclose(f);
    throw std::runtime_error("snapshot: cannot measure " + path + ": " + why);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) throw std::runtime_error("snapshot: short read from " + path);
  return bytes;
}

SnapshotRotation::SnapshotRotation(std::string base_path) : base_(std::move(base_path)) {
  if (base_.empty()) {
    throw std::invalid_argument("SnapshotRotation: empty base path");
  }
}

void SnapshotRotation::write(const std::vector<std::uint8_t>& bytes) {
  // Stage the new snapshot as a complete sibling file first, then demote
  // the current latest and promote the stage — two renames, each atomic.
  // The worst crash window (after the demote, before the promote) leaves no
  // `.latest` but a complete `.prev`, which newest_valid() falls back to.
  const std::string staging = base_ + ".staging";
  write_state_file(staging, bytes);
  // ENOENT is fine on the first write; any other rename failure is real.
  if (std::rename(latest_path().c_str(), previous_path().c_str()) != 0 &&
      errno != ENOENT) {
    throw std::runtime_error("snapshot: rotate " + latest_path() + " -> " +
                             previous_path() + " failed: " + errno_text());
  }
  if (std::rename(staging.c_str(), latest_path().c_str()) != 0) {
    throw std::runtime_error("snapshot: publish " + staging + " -> " +
                             latest_path() + " failed: " + errno_text());
  }
}

std::string SnapshotRotation::newest_valid() {
  for (const std::string& candidate : {latest_path(), previous_path()}) {
    std::FILE* probe = std::fopen(candidate.c_str(), "rb");
    if (probe == nullptr) continue;  // generation not written yet
    std::fclose(probe);
    try {
      const std::vector<std::uint8_t> bytes = read_state_file(candidate);
      StateReader r(bytes);  // envelope check: magic, version, length, hash
      return candidate;
    } catch (const std::runtime_error&) {
      // Corrupted: move it out of the rotation under a fresh quarantine
      // name (kept for forensics, never re-picked) and fall through to the
      // older generation.
      for (int n = 0;; ++n) {
        const std::string jail = candidate + ".quarantined." + std::to_string(n);
        std::FILE* taken = std::fopen(jail.c_str(), "rb");
        if (taken != nullptr) {
          std::fclose(taken);
          continue;
        }
        if (std::rename(candidate.c_str(), jail.c_str()) != 0) {
          throw std::runtime_error("snapshot: quarantine " + candidate + " -> " +
                                   jail + " failed: " + errno_text());
        }
        break;
      }
      ++quarantined_;
    }
  }
  return "";
}

bool SnapshotRotation::is_quarantined_path(const std::string& path) {
  return path.find(".quarantined.") != std::string::npos;
}

}  // namespace dollymp
