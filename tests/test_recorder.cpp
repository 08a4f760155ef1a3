// Flight recorder unit tests: ring semantics, incremental stream hashing,
// binary log round-trips, and the recorder counters surfaced through
// SimStats after an instrumented simulation run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"

namespace dollymp {
namespace {

TraceRecord make_record(SimTime slot, TraceEv type, JobId job = -1) {
  TraceRecord r;
  r.slot = slot;
  r.type = type;
  r.job = job;
  return r;
}

TEST(Recorder, UnboundedKeepsEverythingInOrder) {
  Recorder rec;
  for (int i = 0; i < 100; ++i) {
    rec.append(make_record(i, TraceEv::kJobArrival, i));
  }
  EXPECT_FALSE(rec.bounded());
  EXPECT_EQ(rec.records_written(), 100u);
  EXPECT_EQ(rec.evictions(), 0u);
  EXPECT_EQ(rec.bytes_written(), 100u * kTraceRecordWireBytes);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 100u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);  // seq stamped by the recorder
    EXPECT_EQ(records[i].job, static_cast<JobId>(i));
  }
}

TEST(Recorder, RingKeepsNewestAndCountsEvictions) {
  Recorder rec(8);
  for (int i = 0; i < 20; ++i) {
    rec.append(make_record(i, TraceEv::kJobArrival, i));
  }
  EXPECT_TRUE(rec.bounded());
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.records_written(), 20u);
  EXPECT_EQ(rec.evictions(), 12u);
  EXPECT_EQ(rec.size(), 8u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first unroll: the retained window is seq 12..19.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 12 + i);
  }
}

TEST(Recorder, RingHashCoversEvictedRecords) {
  // The incremental hash fingerprints the *full* stream: a tiny ring and an
  // unbounded recorder fed the same records must agree.
  Recorder ring(4);
  Recorder full;
  for (int i = 0; i < 50; ++i) {
    const auto r = make_record(i * 3, TraceEv::kCopyPlaced, i % 7);
    ring.append(r);
    full.append(r);
  }
  EXPECT_EQ(ring.hash(), full.hash());
  EXPECT_EQ(ring.records_written(), full.records_written());
}

TEST(Recorder, HashIsOrderSensitive) {
  const auto a = make_record(1, TraceEv::kCopyPlaced, 0);
  const auto b = make_record(1, TraceEv::kCopyFinished, 0);
  Recorder ab;
  ab.append(a);
  ab.append(b);
  Recorder ba;
  ba.append(b);
  ba.append(a);
  EXPECT_NE(ab.hash(), ba.hash());

  Recorder ab2;
  ab2.append(a);
  ab2.append(b);
  EXPECT_EQ(ab.hash(), ab2.hash());
}

TEST(Recorder, HashIsPayloadSensitive) {
  auto r = make_record(7, TraceEv::kPlacementQuery);
  r.server = 3;
  r.score = 1.25;
  Recorder x;
  x.append(r);
  r.score = 1.250001;
  Recorder y;
  y.append(r);
  EXPECT_NE(x.hash(), y.hash());
}

TEST(Recorder, DumpDecodesOldestFirstAndNotesEvictions) {
  Recorder rec(2);
  rec.append(make_record(1, TraceEv::kJobArrival, 4));
  rec.append(make_record(2, TraceEv::kCopyPlaced, 4));
  rec.append(make_record(3, TraceEv::kJobCompleted, 4));
  std::ostringstream os;
  rec.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("1 older record(s) evicted"), std::string::npos);
  EXPECT_NE(text.find("copy-placed"), std::string::npos);
  EXPECT_NE(text.find("job-completed"), std::string::npos);
  EXPECT_EQ(text.find("job-arrival"), std::string::npos);  // evicted
  EXPECT_LT(text.find("copy-placed"), text.find("job-completed"));
}

TEST(Recorder, ClearResetsStreamState) {
  Recorder rec(4);
  rec.append(make_record(1, TraceEv::kJobArrival));
  const auto first_hash = rec.hash();
  rec.clear();
  EXPECT_EQ(rec.records_written(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.hash(), kTraceHashSeed);
  rec.append(make_record(1, TraceEv::kJobArrival));
  EXPECT_EQ(rec.hash(), first_hash);  // same stream from scratch
}

TEST(TraceLog, SaveLoadRoundTrip) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 17; ++i) {
    auto r = make_record(i * 5, static_cast<TraceEv>(i % 16), i);
    r.phase = i % 3;
    r.task = i;
    r.copy = i % 2;
    r.server = 20 - i;
    r.aux = -i;
    r.score = 0.5 * i;
    r.seq = static_cast<std::uint64_t>(i);
    records.push_back(r);
  }
  const std::string path = ::testing::TempDir() + "dollymp_trace_roundtrip.dmptrc";
  save_log(path, records, 2.5);
  {
    // DMPTRC02 header: magic, slot_seconds, then the thread-count slot,
    // which a sequential run always fills with 1.
    std::ifstream in(path, std::ios::binary);
    char header[24];
    ASSERT_TRUE(in.read(header, sizeof(header)));
    std::int64_t threads = 0;
    std::memcpy(&threads, header + 16, sizeof(threads));
    EXPECT_EQ(threads, 1);
  }
  const TraceLog loaded = load_log(path);
  EXPECT_DOUBLE_EQ(loaded.slot_seconds, 2.5);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded.records[i], records[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceLog, ReadsLegacyV1Header) {
  // A DMPTRC01 file has no thread-count slot: slot_seconds is followed
  // directly by the record count.  Hand-assemble an empty one.
  const std::string path = ::testing::TempDir() + "dollymp_trace_legacy.dmptrc";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("DMPTRC01", 8);
    const double slot_seconds = 3.0;
    out.write(reinterpret_cast<const char*>(&slot_seconds), sizeof(slot_seconds));
    const std::uint64_t count = 0;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  const TraceLog loaded = load_log(path);
  EXPECT_DOUBLE_EQ(loaded.slot_seconds, 3.0);
  EXPECT_TRUE(loaded.records.empty());
  std::remove(path.c_str());
}

TEST(TraceLog, RejectsForeignFile) {
  const std::string path = ::testing::TempDir() + "dollymp_trace_bogus.dmptrc";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a trace log at all";
  }
  EXPECT_THROW((void)load_log(path), std::runtime_error);
  std::remove(path.c_str());
}

void expect_load_error(const std::string& path, const std::string& needle) {
  try {
    (void)load_log(path);
    FAIL() << path << " must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(TraceLog, RejectsDirectoryWithTypedError) {
  // A directory opens as a stream, but reading it throws
  // std::ios_base::failure; the loader must refuse it up front.
  expect_load_error(::testing::TempDir(), "not a regular file");
}

TEST(TraceLog, RejectsRecordCountWhoseByteSizeWraps) {
  // Two records plus one stray byte leave 107 bytes after the header.  A
  // count c with c * kTraceRecordWireBytes == 107 (mod 2^64) exists because
  // the record size is odd; the loader must not trust the wrapped product.
  const std::string path = ::testing::TempDir() + "dollymp_trace_wrap.dmptrc";
  save_log(path, {make_record(1, TraceEv::kJobArrival, 0),
                  make_record(2, TraceEv::kJobCompleted, 0)},
           5.0);
  std::uint64_t inverse = kTraceRecordWireBytes;  // Newton: odd x is its own inverse mod 8
  for (int i = 0; i < 6; ++i) inverse *= 2 - kTraceRecordWireBytes * inverse;
  const std::uint64_t remaining = 2 * kTraceRecordWireBytes + 1;
  const std::uint64_t count = remaining * inverse;
  ASSERT_EQ(count * kTraceRecordWireBytes, remaining);
  ASSERT_GT(count, std::uint64_t{1} << 32);
  {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(24);  // magic, slot_seconds, thread slot
    io.write(reinterpret_cast<const char*>(&count), sizeof(count));
    io.seekp(0, std::ios::end);
    io.put('\0');
  }
  expect_load_error(path, "corrupt record section");
  std::remove(path.c_str());
}

TEST(Recorder, DecodeMentionsEveryMeaningfulField) {
  auto r = make_record(42, TraceEv::kClonePlaced, 3);
  r.seq = 7;
  r.phase = 1;
  r.task = 12;
  r.copy = 2;
  r.server = 23;
  const std::string text = decode(r);
  EXPECT_NE(text.find("#7"), std::string::npos);
  EXPECT_NE(text.find("slot=42"), std::string::npos);
  EXPECT_NE(text.find("clone-placed"), std::string::npos);
  EXPECT_NE(text.find("job=3"), std::string::npos);
  EXPECT_NE(text.find("phase=1"), std::string::npos);
  EXPECT_NE(text.find("task=12"), std::string::npos);
  EXPECT_NE(text.find("copy=2"), std::string::npos);
  EXPECT_NE(text.find("server=23"), std::string::npos);
}

// ---- simulator integration -------------------------------------------------

std::vector<JobSpec> small_workload(int count = 10) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 6, {1, 1}, 20.0, 15.0));
  }
  assign_poisson_arrivals(jobs, 10.0, 77);
  return jobs;
}

TEST(RecorderSim, StatsSurfaceRecorderCounters) {
  const Cluster cluster = Cluster::google_like(20);
  SimConfig config;
  config.seed = 11;
  Recorder recorder;
  config.recorder = &recorder;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, small_workload(), scheduler);

  EXPECT_GT(recorder.records_written(), 0u);
  EXPECT_EQ(result.stats.recorder_records,
            static_cast<long long>(recorder.records_written()));
  EXPECT_EQ(result.stats.recorder_bytes,
            static_cast<long long>(recorder.bytes_written()));
  EXPECT_EQ(result.stats.recorder_evictions, 0);
  EXPECT_EQ(result.stats.recorder_hash, recorder.hash());

  // The stream must witness the run's lifecycle: arrivals, placements,
  // finishes, task/job completions and scheduler invocations.
  bool saw[16] = {};
  for (const auto& r : recorder.snapshot()) {
    saw[static_cast<int>(r.type)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kJobArrival)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kCopyPlaced)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kCopyFinished)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kTaskCompleted)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kJobCompleted)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kSchedulerInvoked)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kPlacementQuery)]);
}

TEST(RecorderSim, RecorderOffIsTheDefaultAndRecordsNothing) {
  const Cluster cluster = Cluster::google_like(20);
  SimConfig config;
  config.seed = 11;
  ASSERT_EQ(config.recorder, nullptr);
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, small_workload(), scheduler);
  EXPECT_EQ(result.stats.recorder_records, 0);
  EXPECT_EQ(result.stats.recorder_hash, 0u);
}

TEST(RecorderSim, RingRunMatchesUnboundedHashAndResult) {
  const Cluster cluster = Cluster::google_like(20);
  const auto jobs = small_workload();
  SimConfig config;
  config.seed = 5;

  Recorder full;
  config.recorder = &full;
  DollyMPScheduler a;
  const SimResult ra = simulate(cluster, config, jobs, a);

  Recorder ring(64);
  config.recorder = &ring;
  DollyMPScheduler b;
  const SimResult rb = simulate(cluster, config, jobs, b);

  // Recording mode must not perturb the simulation...
  EXPECT_EQ(ra.makespan_seconds, rb.makespan_seconds);
  EXPECT_EQ(ra.total_copies_launched, rb.total_copies_launched);
  // ...and the ring's full-stream hash must match the unbounded one.
  EXPECT_EQ(full.hash(), ring.hash());
  EXPECT_EQ(full.records_written(), ring.records_written());
  EXPECT_GT(ring.evictions(), 0u);
  EXPECT_EQ(rb.stats.recorder_evictions, static_cast<long long>(ring.evictions()));
}

}  // namespace
}  // namespace dollymp
