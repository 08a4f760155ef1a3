#include "dollymp/obs/recorder.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace dollymp {

std::vector<TraceRecord> Recorder::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(buffer_.size());
  if (capacity_ == 0 || buffer_.size() < capacity_) {
    out = buffer_;
  } else {
    out.insert(out.end(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
               buffer_.end());
    out.insert(out.end(), buffer_.begin(),
               buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

void Recorder::dump(std::ostream& os) const {
  const auto records = snapshot();
  if (evictions_ > 0) {
    os << "... " << evictions_ << " older record(s) evicted ...\n";
  }
  for (const auto& r : records) os << decode(r) << '\n';
}

namespace {

constexpr char kMagic[8] = {'D', 'M', 'P', 'T', 'R', 'C', '0', '2'};
/// Legacy header without the thread-count slot; still readable.
constexpr char kMagicV1[8] = {'D', 'M', 'P', 'T', 'R', 'C', '0', '1'};

// Field-by-field packing: the in-memory struct has padding, so raw memcpy
// of the whole struct would serialize (and hash) indeterminate bytes.
template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
T take(const char*& p, const char* end) {
  if (p + sizeof(T) > end) throw std::runtime_error("trace log: truncated record");
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

}  // namespace

void save_log(const std::string& path, const std::vector<TraceRecord>& records,
              double slot_seconds) {
  std::string blob;
  blob.reserve(sizeof(kMagic) + 24 + records.size() * kTraceRecordWireBytes);
  blob.append(kMagic, sizeof(kMagic));
  put(blob, slot_seconds);
  put(blob, std::int64_t{1});  // thread-count slot: runs are sequential
  put(blob, static_cast<std::uint64_t>(records.size()));
  for (const auto& r : records) {
    put(blob, r.seq);
    put(blob, static_cast<std::int64_t>(r.slot));
    put(blob, static_cast<std::uint8_t>(r.type));
    put(blob, r.job);
    put(blob, r.phase);
    put(blob, r.task);
    put(blob, r.copy);
    put(blob, r.server);
    put(blob, r.aux);
    put(blob, r.score);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(blob.data(), static_cast<std::streamsize>(blob.size()))) {
    throw std::runtime_error("save_log: cannot write " + path);
  }
}

TraceLog load_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_log: cannot open " + path);
  // A directory opens too, and reading it throws std::ios_base::failure.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw std::runtime_error("load_log: " + path + " is not a regular file");
  }
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const char* p = blob.data();
  const char* end = p + blob.size();
  const bool v2 = blob.size() >= sizeof(kMagic) &&
                  std::memcmp(p, kMagic, sizeof(kMagic)) == 0;
  const bool v1 = !v2 && blob.size() >= sizeof(kMagicV1) &&
                  std::memcmp(p, kMagicV1, sizeof(kMagicV1)) == 0;
  if (!v2 && !v1) {
    throw std::runtime_error("load_log: " + path + " is not a dollymp trace log");
  }
  p += sizeof(kMagic);
  TraceLog log;
  log.slot_seconds = take<double>(p, end);
  if (v2) (void)take<std::int64_t>(p, end);  // thread-count slot
  const auto count = take<std::uint64_t>(p, end);
  // Divide rather than multiply: count * kTraceRecordWireBytes can wrap
  // around to the remaining byte count and size a huge reserve.
  const auto remaining = static_cast<std::uint64_t>(end - p);
  if (remaining % kTraceRecordWireBytes != 0 ||
      count != remaining / kTraceRecordWireBytes) {
    throw std::runtime_error("load_log: " + path + " has a corrupt record section");
  }
  log.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.seq = take<std::uint64_t>(p, end);
    r.slot = take<std::int64_t>(p, end);
    r.type = static_cast<TraceEv>(take<std::uint8_t>(p, end));
    r.job = take<JobId>(p, end);
    r.phase = take<PhaseIndex>(p, end);
    r.task = take<std::int32_t>(p, end);
    r.copy = take<std::int32_t>(p, end);
    r.server = take<std::int32_t>(p, end);
    r.aux = take<std::int64_t>(p, end);
    r.score = take<double>(p, end);
    log.records.push_back(r);
  }
  return log;
}

}  // namespace dollymp
