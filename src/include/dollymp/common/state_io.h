// Binary state serialization for checkpoint/restore (the DMPCKPT01 format).
//
// A checkpoint must be *verifiable*: the restored simulation's
// flight-recorder stream hash has to equal the uninterrupted run's, so a
// snapshot that silently drops or reorders a field is worse than one that
// fails loudly.  StateWriter/StateReader therefore wrap every payload in a
// framed envelope — a 9-byte magic ("DMPCKPT01"), a format version, the
// payload length, and a trailing 64-bit payload hash — and the reader
// rejects truncation, trailing garbage, bit corruption and foreign files
// with a std::runtime_error naming what went wrong.
//
// The payload hash reads 8-byte little-endian words in four independent
// lanes with the XXH64 round (acc = rotl(acc + w*P2, 31) * P1), feeds the
// tail of fewer than 32 bytes in byte-wise, folds the lanes and the payload
// length, and finishes with an avalanche.  Every step is a bijection of its
// lane, so any change confined to one word (or one tail byte) changes the
// hash.  The writer seals in place: its buffer starts with the header slot,
// and finish() patches the header, appends the hash and hands the buffer
// over without copying the payload.
//
// Inside the envelope the encoding is deliberately dumb: little-endian
// fixed-width integers, IEEE doubles by bit pattern, length-prefixed
// strings and vectors, and u32 section tags (fourcc-style) sprinkled
// between subsystems so a reader that drifts out of sync fails at the next
// tag instead of misinterpreting the rest of the stream.  Snapshots are
// exchanged between process images of the same build (the service
// checkpoints to disk and restores later, possibly in a fresh process), not
// across architectures.
//
// The writer appends a value's object bytes, which on the little-endian
// hosts it builds for (state_io.cpp static_asserts it) are exactly that
// encoding.  fields() packs a whole fixed-width record on the stack and
// appends it with one capacity check and one copy, so the per-task and
// per-server loops cost one append per record, not one per byte.  Raw
// struct records (pod, pod_vec, fields) carry their padding too, so every
// type written that way spells its alignment gaps out as zeroed members and
// static_asserts it has no implicit padding: the bytes of a checkpoint are a
// function of the simulation state alone.  reserve() sizes the buffer once:
// SimCore::save_state reserves an upper bound summed from sizes its layers
// already hold, so a checkpoint allocates once instead of doubling its way
// up from the header (the pages of an overestimate that nothing writes are
// never touched).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace dollymp {

/// The 9-byte format magic + current version.  Bump the version whenever a
/// payload layout changes (a SimStats field added or removed shifts every
/// later byte), so an older snapshot fails loudly instead of being misread.
/// Version 4 writes a recycled (free) job slot as a free-list entry, its
/// extents and its JobRuntime scalars only (docs/ALGORITHMS.md §19.5);
/// version 3 wrote every slot's records in full.
inline constexpr char kStateMagic[] = "DMPCKPT01";  // 9 chars + NUL
inline constexpr std::uint32_t kStateVersion = 4;
/// Envelope header ahead of the payload: magic, u32 version, u64 length.
inline constexpr std::size_t kStateHeaderBytes = 9 + 4 + 8;

class StateWriter {
 public:
  /// Starts the buffer with the zeroed envelope header slot.
  StateWriter();

  void u8(std::uint8_t v) { fields(v); }
  void b(bool v) { fields(v); }
  void u32(std::uint32_t v) { fields(v); }
  void i32(std::int32_t v) { fields(v); }
  void u64(std::uint64_t v) { fields(v); }
  void i64(std::int64_t v) { fields(v); }
  void f64(double v) { fields(v); }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// One fixed-width record: every value's bytes back to back, a bool as
  /// one 0/1 byte, appended with a single capacity check.  The same bytes
  /// as the matching run of u32()/f64()/pod() calls, minus their size
  /// words (pass pod_size<T> where a pod() record belongs).
  template <typename... Ts>
  void fields(const Ts&... values) {
    static_assert((std::is_trivially_copyable_v<Ts> && ...));
    std::uint8_t record[(sizeof(Ts) + ...)];
    std::uint8_t* at = record;
    ((at = put(at, values)), ...);
    bytes(record, sizeof(record));
  }
  /// The size word pod() writes ahead of a T, for use inside fields().
  template <typename T>
  static constexpr std::uint32_t pod_size = static_cast<std::uint32_t>(sizeof(T));
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// Trivially-copyable record by raw bytes (same-build snapshots only; the
  /// sizeof is part of the stream so a layout drift fails loudly on read).
  /// T must have no implicit padding: its bytes would be whatever memory
  /// held, and two checkpoints of one state would differ.
  template <typename T>
  void pod(const T& v) {
    fields(pod_size<T>, v);
  }
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    fields(pod_size<T>, std::uint64_t{v.size()});
    bytes(v.data(), v.size() * sizeof(T));
  }
  /// Bytes pod_vec(v) and str(s) append, for layers that bound their
  /// payload ahead of writing it.
  template <typename T>
  [[nodiscard]] static std::size_t pod_vec_bytes(const std::vector<T>& v) {
    return 4 + 8 + v.size() * sizeof(T);
  }
  [[nodiscard]] static std::size_t str_bytes(const std::string& s) { return 8 + s.size(); }
  /// Subsystem boundary marker (fourcc), checked by StateReader::section.
  void section(std::uint32_t tag) { u32(0x5EC70000u ^ tag); }

  /// Make room for `payload_bytes` more payload bytes plus the envelope's
  /// trailing hash in one allocation, so appends up to that bound never
  /// move the buffer.  A no-op when the room is already there.
  void reserve(std::size_t payload_bytes) { buf_.reserve(buf_.size() + payload_bytes + 8); }

  /// Reserve an 8-byte length slot (nested blobs a reader may skip);
  /// returns its position for patch_u64.  Positions (and size()) count the
  /// envelope header slot, so only differences between them are meaningful.
  [[nodiscard]] std::size_t reserve_u64() {
    const std::size_t at = buf_.size();
    u64(0);
    return at;
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Seal the payload in place into the framed envelope (magic, version,
  /// length, payload, hash) and hand the buffer over.  The writer is
  /// consumed.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  /// A value's wire bytes: the host is little-endian (state_io.cpp checks),
  /// so an integer's or double's object bytes are its encoding.
  template <typename T>
  static std::uint8_t* put(std::uint8_t* at, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      *at = v ? 1 : 0;
    } else {
      std::memcpy(at, &v, sizeof(T));
    }
    return at + sizeof(T);
  }

  std::vector<std::uint8_t> buf_;
};

class StateReader {
 public:
  /// Validate the envelope (magic, version, length, payload hash) and
  /// position the cursor at the payload start.  Throws std::runtime_error
  /// on a foreign, truncated or corrupted snapshot.  The buffer must
  /// outlive the reader.
  StateReader(const std::uint8_t* data, std::size_t size);
  explicit StateReader(const std::vector<std::uint8_t>& data)
      : StateReader(data.data(), data.size()) {}
  /// A temporary buffer would die before the reader is done with it.
  explicit StateReader(std::vector<std::uint8_t>&& data) = delete;

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  void bytes(void* out, std::size_t n) {
    need(n);
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  [[nodiscard]] std::string str();
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_record_size(u32(), sizeof(T));
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void pod_vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_record_size(u32(), sizeof(T));
    const std::size_t n = count(sizeof(T));
    v.resize(n);
    bytes(v.data(), n * sizeof(T));
  }
  /// Element count of a length-prefixed sequence whose elements take at
  /// least `min_bytes` each on the wire.  Throws when the rest of the
  /// payload cannot hold that many, so a bad count never sizes an
  /// allocation.
  [[nodiscard]] std::size_t count(std::size_t min_bytes);
  /// Consume a section marker; throws naming the tag on mismatch.
  void section(std::uint32_t tag);
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }
  /// The next n payload bytes, consumed in place (no copy); valid as long
  /// as the buffer the reader was built on.
  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    need(n);
    const std::uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
  }
  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }
  /// End-of-payload check for callers that want to assert full consumption.
  void expect_done() const;

 private:
  void need(std::size_t n) const;
  static void check_record_size(std::uint32_t stored, std::size_t expected);

  const std::uint8_t* data_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Whole-file helpers for checkpoint artifacts.  write_state_file is
/// atomic: the bytes land in `path + ".tmp"`, are flushed and fsync'd, and
/// the temp file is renamed over the target, so a crash at any instant
/// leaves either the old complete file or the new complete file — never a
/// torn one.  Every failure (open, short write from a full disk, fsync,
/// rename) throws std::runtime_error carrying the errno text.
/// read_state_file throws std::runtime_error on I/O failure.
void write_state_file(const std::string& path, const std::vector<std::uint8_t>& bytes);
[[nodiscard]] std::vector<std::uint8_t> read_state_file(const std::string& path);

/// Last-good/previous snapshot rotation for crash-safe supervised recovery.
///
/// write() publishes bytes as `<base>.latest` (atomically, via
/// write_state_file) after demoting the previous latest to `<base>.prev`,
/// so at any instant at most one complete older snapshot plus one complete
/// newer snapshot exist on disk.  newest_valid() walks latest-then-prev,
/// validates each candidate's DMPCKPT01 envelope, quarantines a corrupted
/// file out of the way (renamed to `<file>.quarantined.N` so it is kept for
/// forensics but never re-picked) and returns the path of the newest
/// snapshot that verifies — the supervisor's automatic fallback.
class SnapshotRotation {
 public:
  explicit SnapshotRotation(std::string base_path);

  /// Publish `bytes` as the new latest snapshot; the previous latest (if
  /// any) becomes the previous-generation fallback.
  void write(const std::vector<std::uint8_t>& bytes);

  /// Path of the newest snapshot whose envelope validates, or "" when none
  /// survives.  Corrupted candidates are quarantined as a side effect.
  [[nodiscard]] std::string newest_valid();

  [[nodiscard]] std::string latest_path() const { return base_ + ".latest"; }
  [[nodiscard]] std::string previous_path() const { return base_ + ".prev"; }
  /// True when `path` names a quarantined snapshot (never load these).
  [[nodiscard]] static bool is_quarantined_path(const std::string& path);
  /// Corrupted snapshots moved aside by newest_valid() on this instance.
  [[nodiscard]] int quarantined_count() const { return quarantined_; }

 private:
  std::string base_;
  int quarantined_ = 0;
};

}  // namespace dollymp
