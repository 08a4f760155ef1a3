// The flight recorder: an append-only sink for TraceRecords.
//
// Two retention modes behind one type:
//   * unbounded stream (capacity 0) — keeps every record, for trace export
//     and replay verification;
//   * bounded ring (capacity N) — keeps the newest N records and evicts the
//     oldest, for always-on recording in long runs, with dump-on-anomaly:
//     when something goes wrong the ring holds the last N decisions that
//     led there (dump() renders them oldest-first).
//
// Either way the recorder maintains counters (records written, wire bytes,
// evictions) and an incremental 64-bit hash over the *full* stream — the
// hash covers evicted records too, so a ring-recorded run and an
// unbounded-recorded run of the same config report the same hash.  That
// hash is the replay verifier's cheap equality oracle.
//
// The hook contract: the simulator holds a `Recorder*` that is null by
// default, and every instrumentation site is a single branch
// (`if (rec) rec->append(...)`), so recording costs nothing when off and
// one predictable branch plus ~56 bytes of stores when on.  Not
// thread-safe; one recorder per run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dollymp/obs/trace_record.h"

namespace dollymp {

class Recorder {
 public:
  /// capacity 0 = unbounded stream; capacity N > 0 = ring of the newest N.
  explicit Recorder(std::size_t ring_capacity = 0) : capacity_(ring_capacity) {
    if (capacity_ > 0) buffer_.reserve(capacity_);
  }

  /// Append one record.  Stamps `record.seq` with the stream position and
  /// folds the stamped record into the running hash before storing it.
  void append(TraceRecord record) {
    record.seq = records_written_++;
    hash_ = fold_record_hash(hash_, record);
    if (capacity_ == 0) {
      buffer_.push_back(record);
    } else if (buffer_.size() < capacity_) {
      buffer_.push_back(record);
    } else {
      buffer_[head_] = record;
      if (++head_ == capacity_) head_ = 0;  // avoids a div for non-power-of-two rings
      ++evictions_;
    }
  }

  [[nodiscard]] bool bounded() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t records_written() const { return records_written_; }
  [[nodiscard]] std::uint64_t bytes_written() const {
    return records_written_ * kTraceRecordWireBytes;
  }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Incremental hash over every record ever appended (evicted included).
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  /// Records currently retained (<= records_written for a ring).
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

  /// Retained records in stream order (a ring is unrolled oldest-first).
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Decode the retained records, one per line, oldest first — the
  /// dump-on-anomaly rendering.
  void dump(std::ostream& os) const;

  void clear() {
    buffer_.clear();
    head_ = 0;
    records_written_ = 0;
    evictions_ = 0;
    hash_ = kTraceHashSeed;
  }

  /// Checkpoint/restore: resume the incremental stream at a saved position.
  /// Retained records are dropped (they were evicted-by-restore); the next
  /// append continues the sequence numbering and hash chain exactly where
  /// the snapshot left it, so the restored run's stream hash stays equal to
  /// the uninterrupted run's.
  void restore_stream(std::uint64_t records_written, std::uint64_t hash) {
    buffer_.clear();
    head_ = 0;
    records_written_ = records_written;
    evictions_ = 0;
    hash_ = hash;
  }

 private:
  std::size_t capacity_;
  std::vector<TraceRecord> buffer_;
  std::size_t head_ = 0;  ///< ring only: index of the oldest retained record
  std::uint64_t records_written_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hash_ = kTraceHashSeed;
};

/// Binary log I/O.  Format: magic "DMPTRC02", slot_seconds, a worker-thread
/// count (always 1: every run is sequential; the slot is kept so the format
/// is unchanged), record count, then `count` packed records
/// (kTraceRecordWireBytes each, little-endian on every platform this
/// project targets).  load_log also accepts legacy "DMPTRC01" files, which
/// lack the thread slot.  Throws std::runtime_error on I/O failure or a
/// malformed/foreign file.
struct TraceLog {
  double slot_seconds = 5.0;
  std::vector<TraceRecord> records;
};

void save_log(const std::string& path, const std::vector<TraceRecord>& records,
              double slot_seconds);
[[nodiscard]] TraceLog load_log(const std::string& path);

}  // namespace dollymp
