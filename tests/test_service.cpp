// Service-mode acceptance tests (DESIGN.md §4.8): streaming arrival
// determinism, checkpoint/restore bit-identity across the policy × faults
// matrix, corrupted-snapshot rejection, and copy-on-write what-if
// forks that leave the parent's stream untouched.
#include "dollymp/service/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/common/state_io.h"
#include "dollymp/service/arrival_source.h"
#include "dollymp/sim/sim_core.h"

namespace dollymp {
namespace {

ArrivalConfig light_arrivals() {
  ArrivalConfig arrivals;
  arrivals.rate_per_second = 0.1;
  arrivals.mean_input_gb = 1.0;
  arrivals.seed = 17;
  return arrivals;
}

ServiceConfig service_config(const std::string& policy, bool faults) {
  ServiceConfig config;
  config.policy = policy;
  config.arrivals = light_arrivals();
  config.sim.seed = 5;
  if (faults) {
    config.sim.failures.enabled = true;
    config.sim.failures.mean_time_to_failure_seconds = 900.0;
    config.sim.failures.mean_repair_seconds = 120.0;
  }
  return config;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---- arrival source ---------------------------------------------------------

TEST(ArrivalSource, DeterministicForSameConfig) {
  ArrivalSource a(light_arrivals());
  ArrivalSource b(light_arrivals());
  std::vector<JobSpec> ja;
  std::vector<JobSpec> jb;
  EXPECT_EQ(a.emit_until(2000.0, ja), b.emit_until(2000.0, jb));
  ASSERT_EQ(ja.size(), jb.size());
  ASSERT_GT(ja.size(), 0u);
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].id, jb[i].id);
    EXPECT_DOUBLE_EQ(ja[i].arrival_seconds, jb[i].arrival_seconds);
    EXPECT_EQ(ja[i].phases.size(), jb[i].phases.size());
  }
}

TEST(ArrivalSource, ChunkedEmissionMatchesOneShot) {
  ArrivalSource chunked(light_arrivals());
  ArrivalSource oneshot(light_arrivals());
  std::vector<JobSpec> jc;
  std::vector<JobSpec> jo;
  for (double t = 250.0; t <= 2000.0; t += 250.0) chunked.emit_until(t, jc);
  oneshot.emit_until(2000.0, jo);
  ASSERT_EQ(jc.size(), jo.size());
  for (std::size_t i = 0; i < jc.size(); ++i) {
    EXPECT_EQ(jc[i].id, jo[i].id);
    EXPECT_DOUBLE_EQ(jc[i].arrival_seconds, jo[i].arrival_seconds);
  }
}

TEST(ArrivalSource, ArrivalsRespectHorizonAndOrdering) {
  ArrivalSource source(light_arrivals());
  std::vector<JobSpec> jobs;
  source.emit_until(1500.0, jobs);
  ASSERT_GT(jobs.size(), 1u);
  double prev = -1.0;
  for (const auto& job : jobs) {
    EXPECT_LT(job.arrival_seconds, 1500.0);
    EXPECT_GE(job.arrival_seconds, prev);
    prev = job.arrival_seconds;
  }
  // The pending arrival is exactly the first one past the horizon.
  EXPECT_GE(source.next_arrival_seconds(), 1500.0);
}

TEST(ArrivalSource, SaveLoadReproducesContinuation) {
  ArrivalSource original(light_arrivals());
  std::vector<JobSpec> warmup;
  original.emit_until(1000.0, warmup);

  StateWriter w;
  original.save_state(w);
  const auto bytes = w.finish();

  ArrivalSource restored(light_arrivals());
  StateReader r(bytes);
  restored.load_state(r);
  r.expect_done();

  std::vector<JobSpec> cont_a;
  std::vector<JobSpec> cont_b;
  original.emit_until(3000.0, cont_a);
  restored.emit_until(3000.0, cont_b);
  ASSERT_EQ(cont_a.size(), cont_b.size());
  ASSERT_GT(cont_a.size(), 0u);
  for (std::size_t i = 0; i < cont_a.size(); ++i) {
    EXPECT_EQ(cont_a[i].id, cont_b[i].id);
    EXPECT_DOUBLE_EQ(cont_a[i].arrival_seconds, cont_b[i].arrival_seconds);
  }
}

TEST(ArrivalSource, DiurnalAndFlashModulateRate) {
  ArrivalConfig config = light_arrivals();
  config.diurnal_amplitude = 0.5;
  config.diurnal_period_seconds = 1000.0;
  config.flash_multiplier = 4.0;
  config.flash_start_seconds = 5000.0;
  config.flash_duration_seconds = 100.0;
  ArrivalSource source(config);
  // Peak of the sine (t = period/4): rate * 1.5.
  EXPECT_NEAR(source.rate_at(250.0), 0.1 * 1.5, 1e-12);
  // Trough (t = 3*period/4): rate * 0.5.
  EXPECT_NEAR(source.rate_at(750.0), 0.1 * 0.5, 1e-12);
  // Inside the flash window the multiplier applies on top.
  EXPECT_NEAR(source.rate_at(5000.0), source.rate_at(0.0) * 4.0, 1e-12);
  // Just past the window it is gone.
  EXPECT_NEAR(source.rate_at(5100.0), source.rate_at(100.0), 1e-12);
}

TEST(ArrivalSource, HigherRateYieldsMoreArrivals) {
  ArrivalConfig slow = light_arrivals();
  ArrivalConfig fast = light_arrivals();
  fast.rate_per_second = 1.0;
  std::vector<JobSpec> js;
  std::vector<JobSpec> jf;
  ArrivalSource(slow).emit_until(3000.0, js);
  ArrivalSource(fast).emit_until(3000.0, jf);
  EXPECT_GT(jf.size(), js.size() * 3);
}

// ---- validation -------------------------------------------------------------

TEST(ServiceValidation, ArrivalConfigRejectsNonsense) {
  {
    ArrivalConfig config;
    config.rate_per_second = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.diurnal_amplitude = 1.0;  // must be < 1 or the rate goes negative
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.diurnal_amplitude = 0.3;
    config.diurnal_period_seconds = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.flash_multiplier = 2.0;  // surge without a start/duration window
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.mean_input_gb = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(ServiceValidation, ServiceConfigRejectsNonsense) {
  {
    ServiceConfig config;
    config.policy = "dollymp9";
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ServiceConfig config;
    config.pump_slots = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ServiceConfig config;
    config.checkpoint_interval_seconds = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(ServiceValidation, UnknownPolicyMessageListsKnownNames) {
  try {
    (void)make_named_policy("dolymp2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dolymp2"), std::string::npos);
    EXPECT_NE(what.find("dollymp0"), std::string::npos);
    EXPECT_NE(what.find("tetris"), std::string::npos);
  }
}

TEST(ServiceValidation, SimConfigCoversModulationKnobs) {
  {
    SimConfig config;
    config.slot_seconds = std::numeric_limits<double>::infinity();
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    SimConfig config;
    config.background.enabled = true;
    config.background.contention_probability = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    SimConfig config;
    config.locality.enabled = true;
    config.locality.replicas = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    // Running without the placement index is legal (the linear scans).
    SimConfig config;
    config.use_placement_index = false;
    EXPECT_NO_THROW(config.validate());
  }
}

// ---- checkpoint/restore matrix ---------------------------------------------

constexpr SimTime kT1 = 120;  // checkpoint point (slots)
constexpr SimTime kT2 = 240;  // comparison horizon (slots)

struct MatrixCell {
  const char* policy;
  bool faults;
};

/// Job slots that are free (recycled, spec released) in `session` now.
std::vector<std::size_t> free_slots(const Session& session) {
  const std::vector<const JobSpec*> specs = session.core().job_spec_pointers();
  std::vector<std::size_t> free;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i] == nullptr) free.push_back(i);
  }
  return free;
}

/// True when some slot in `slots` holds a live job in `session` now.
bool any_reused(const Session& session, const std::vector<std::size_t>& slots) {
  const std::vector<const JobSpec*> specs = session.core().job_spec_pointers();
  return std::any_of(slots.begin(), slots.end(), [&specs](std::size_t i) {
    return i < specs.size() && specs[i] != nullptr;
  });
}

TEST(ServiceCheckpoint, RestoredRunIsBitIdenticalAcrossMatrix) {
  const std::vector<MatrixCell> cells = {
      {"dollymp2", false}, {"dollymp2", true}, {"drf", false},
      {"drf", true},       {"tetris", false},  {"tetris", true},
  };
  int cell_index = 0;
  for (const auto& cell : cells) {
    SCOPED_TRACE(std::string(cell.policy) + (cell.faults ? "/faults" : "/clean"));
    const ServiceConfig config = service_config(cell.policy, cell.faults);
    const std::string path =
        temp_path("dollymp_service_ckpt_" + std::to_string(cell_index++) + ".ckpt");

    Session parent(Cluster::paper30(), config);
    parent.run_until(kT1);
    parent.checkpoint(path);
    const std::uint64_t hash_at_t1 = parent.stream_hash();
    // The snapshot must carry free slots, and the continuation must reuse
    // one, so restore -> rematerialize is exercised, not just restore.
    const std::vector<std::size_t> free_at_t1 = free_slots(parent);
    ASSERT_FALSE(free_at_t1.empty());
    parent.run_until(kT2);
    ASSERT_GT(parent.totals().jobs_ingested, 0);

    auto restored = Session::restore(Cluster::paper30(), config, path);
    EXPECT_EQ(restored->clock(), kT1);
    EXPECT_EQ(restored->stream_hash(), hash_at_t1);
    EXPECT_EQ(free_slots(*restored), free_at_t1);
    restored->run_until(kT2);
    EXPECT_TRUE(any_reused(*restored, free_at_t1));

    // The continuation from the snapshot replays the uninterrupted future
    // bit for bit: same stream hash, same record count, same totals.
    EXPECT_EQ(restored->stream_hash(), parent.stream_hash());
    EXPECT_EQ(restored->records_written(), parent.records_written());
    EXPECT_EQ(restored->totals().jobs_ingested, parent.totals().jobs_ingested);
    EXPECT_EQ(restored->totals().jobs_completed, parent.totals().jobs_completed);
    EXPECT_DOUBLE_EQ(restored->totals().response_seconds_sum,
                     parent.totals().response_seconds_sum);
    EXPECT_EQ(restored->totals().clones_launched, parent.totals().clones_launched);
  }
}

TEST(ServiceCheckpoint, CheckpointingDoesNotPerturbTheRun) {
  // The stream is a deterministic function of (config, run_until horizon
  // sequence) — ingest chunk boundaries decide whether a job reuses a
  // recycled slot — so both sessions pause at kT1; only one checkpoints.
  const ServiceConfig config = service_config("dollymp2", false);

  Session plain(Cluster::paper30(), config);
  plain.run_until(kT1);
  plain.run_until(kT2);

  Session observed(Cluster::paper30(), config);
  observed.run_until(kT1);
  observed.checkpoint(temp_path("dollymp_service_noop.ckpt"));
  observed.run_until(kT2);

  EXPECT_EQ(plain.stream_hash(), observed.stream_hash());
  EXPECT_EQ(plain.records_written(), observed.records_written());
}

TEST(ServiceCheckpoint, StreamIsDeterministicForSameHorizonSequence) {
  const ServiceConfig config = service_config("dollymp2", true);
  Session a(Cluster::paper30(), config);
  Session b(Cluster::paper30(), config);
  for (SimTime t = 40; t <= kT2; t += 40) {
    a.run_until(t);
    b.run_until(t);
  }
  EXPECT_EQ(a.stream_hash(), b.stream_hash());
  EXPECT_EQ(a.records_written(), b.records_written());
}

TEST(ServiceCheckpoint, RejectsCorruptedAndTruncatedSnapshots) {
  const ServiceConfig config = service_config("dollymp2", false);
  const std::string path = temp_path("dollymp_service_corrupt.ckpt");
  Session session(Cluster::paper30(), config);
  session.run_until(kT1);
  session.checkpoint(path);

  auto bytes = read_state_file(path);
  ASSERT_GT(bytes.size(), 64u);

  {
    auto corrupted = bytes;
    corrupted[corrupted.size() / 2] ^= 0x40;
    const std::string bad = temp_path("dollymp_service_corrupt_bit.ckpt");
    write_state_file(bad, corrupted);
    EXPECT_THROW((void)Session::restore(Cluster::paper30(), config, bad),
                 std::runtime_error);
  }
  {
    auto truncated = bytes;
    truncated.resize(truncated.size() / 2);
    const std::string bad = temp_path("dollymp_service_truncated.ckpt");
    write_state_file(bad, truncated);
    EXPECT_THROW((void)Session::restore(Cluster::paper30(), config, bad),
                 std::runtime_error);
  }
  {
    EXPECT_THROW(
        (void)Session::restore(Cluster::paper30(), config,
                               temp_path("dollymp_service_missing.ckpt")),
        std::runtime_error);
  }
}

/// Offset just past the first occurrence of section marker `tag` at or
/// after `from` in a DMPCKPT01 payload.
std::size_t after_section(const std::vector<std::uint8_t>& payload, std::uint32_t tag,
                          std::size_t from = 0) {
  const std::uint32_t marker = 0x5EC70000u ^ tag;
  std::uint8_t le[4];
  for (int i = 0; i < 4; ++i) le[i] = static_cast<std::uint8_t>(marker >> (8 * i));
  const auto it = std::search(payload.begin() + static_cast<std::ptrdiff_t>(from),
                              payload.end(), le, le + 4);
  if (it == payload.end()) throw std::logic_error("section marker not found");
  return static_cast<std::size_t>(it - payload.begin()) + 4;
}

// Bounds-checked accessors: a mis-computed offset fails the test with
// std::out_of_range instead of reading or writing past the payload.
std::uint64_t get_u64(const std::vector<std::uint8_t>& payload, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t byte = payload.at(at + static_cast<std::size_t>(i));
    v |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return v;
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& payload, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const std::uint8_t byte = payload.at(at + static_cast<std::size_t>(i));
    v |= static_cast<std::uint32_t>(byte) << (8 * i);
  }
  return v;
}

void put_u64(std::vector<std::uint8_t>& payload, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    payload.at(at + static_cast<std::size_t>(i)) =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_i32(std::vector<std::uint8_t>& payload, std::size_t at, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) {
    payload.at(at + static_cast<std::size_t>(i)) =
        static_cast<std::uint8_t>(u >> (8 * i));
  }
}

/// Offsets of the job-slot records in a DMPCKPT01 payload.  SPEC holds the
/// free-slot list (a u32 pod vector), the live-spec count and the live
/// slots' specs; STOR opens with the packed live duration pools (u64
/// count, doubles), the job and phase extents (pod vectors) and every
/// slot's fixed-width JobRuntime scalar record.
struct SlotLayout {
  std::vector<std::uint32_t> free;  ///< free-slot indices as saved
  std::size_t free_at = 0;          ///< first free-slot index
  std::uint64_t slots = 0;          ///< free + live job slots
  std::size_t phases_at = 0;        ///< phase count of the first live spec
  std::size_t job_extents_at = 0;   ///< first JobExtent {phase_begin, phase_count}
  std::size_t phase_extents_at = 0; ///< first PhaseExtent {task_begin, task_count, ...}
  std::size_t jobs_at = 0;          ///< first JobRuntime scalar record
  std::size_t tasks_at = 0;         ///< first live task record
  std::uint64_t tasks = 0;          ///< live task records
};

/// JobRuntime scalar record: id, arrival, arrived, finished, finish and
/// first-start slots, remaining phases, clone and speculation counts,
/// resource seconds, tasks with clones, pending events, ingest seq.
constexpr std::size_t kJobRecordBytes = 4 + 8 + 1 + 1 + 8 + 8 + 4 + 4 + 4 + 8 + 4 + 4 + 8;
constexpr std::size_t kJobFinishedAt = 4 + 8 + 1;
constexpr std::size_t kJobPendingEventsAt = 4 + 8 + 1 + 1 + 8 + 8 + 4 + 4 + 4 + 8 + 4;
/// PhaseRuntime scalar record: index, remaining tasks, unfinished parents,
/// has-children, unscheduled tasks, hint, active copies, finished, finish
/// slot, gang penalty.
constexpr std::size_t kPhaseRecordBytes = 4 + 4 + 4 + 1 + 4 + 4 + 4 + 1 + 8 + 8;

SlotLayout slot_layout(const std::vector<std::uint8_t>& payload) {
  SlotLayout layout;
  const std::size_t spec_at = after_section(payload, 0x53504543u);  // 'SPEC'
  const std::uint64_t free_count = get_u64(payload, spec_at + 4);
  layout.free_at = spec_at + 4 + 8;
  for (std::uint64_t i = 0; i < free_count; ++i) {
    layout.free.push_back(get_u32(payload, layout.free_at + 4 * i));
  }
  const std::size_t live_at = layout.free_at + 4 * free_count;
  layout.slots = free_count + get_u64(payload, live_at);
  // First live spec: id, name, app, arrival, then the phase count.
  std::size_t at = live_at + 8 + 4;
  at += 8 + get_u64(payload, at);
  at += 8 + get_u64(payload, at);
  layout.phases_at = at + 8;

  const std::size_t pool_at = after_section(payload, 0x53544F52u, spec_at);  // 'STOR'
  layout.job_extents_at = pool_at + 8 + 8 * get_u64(payload, pool_at) + 4 + 8;
  const std::size_t phase_count_at = layout.job_extents_at + 8 * layout.slots + 4;
  const std::uint64_t phases = get_u64(payload, phase_count_at);
  layout.phase_extents_at = phase_count_at + 8;
  const std::size_t jobs_count_at = layout.phase_extents_at + 16 * phases;
  if (get_u64(payload, jobs_count_at) != layout.slots) {
    throw std::logic_error("job-record offset is off");
  }
  layout.jobs_at = jobs_count_at + 8;
  const std::size_t live_phases_at = layout.jobs_at + kJobRecordBytes * layout.slots;
  const std::size_t live_tasks_at =
      live_phases_at + 8 + kPhaseRecordBytes * get_u64(payload, live_phases_at);
  layout.tasks = get_u64(payload, live_tasks_at);
  layout.tasks_at = live_tasks_at + 8;
  return layout;
}

/// Offset of the raw CopyRuntime bytes of the first restored copy whose
/// `active` flag equals `active`.  A task record is its ref and demand pod
/// records, its replica list, 38 bytes of scalars, a u32 copy count and
/// the size-prefixed copy records.
std::size_t find_copy(const std::vector<std::uint8_t>& payload, const SlotLayout& layout,
                      bool active) {
  std::size_t at = layout.tasks_at;
  for (std::uint64_t t = 0; t < layout.tasks; ++t) {
    at += (4 + sizeof(TaskRef)) + (4 + sizeof(Resources));
    at += 4 + 8 + sizeof(ServerId) * get_u64(payload, at + 4);
    at += 1 + 1 + 8 + 8 + 8 + 8 + 4;
    const std::uint32_t copies = get_u32(payload, at);
    at += 4;
    for (std::uint32_t c = 0; c < copies; ++c) {
      if (get_u32(payload, at) != sizeof(CopyRuntime)) {
        throw std::logic_error("copy-record offset is off");
      }
      const std::size_t copy_at = at + 4;
      const bool copy_active = payload.at(copy_at + offsetof(CopyRuntime, active)) != 0;
      if (copy_active == active) return copy_at;
      at = copy_at + sizeof(CopyRuntime);
    }
  }
  throw std::logic_error("no matching copy record");
}

/// Offset of the raw SimEvent bytes of the first pending heap event whose
/// kind satisfies `pick`.
std::size_t find_heap_event(const std::vector<std::uint8_t>& payload,
                            bool (*pick)(EvKind)) {
  std::size_t at = after_section(payload, 0x48454150u);  // 'HEAP'
  const std::uint64_t count = get_u64(payload, at);
  at += 8;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t event_at = at + 4;  // past the record-size word
    if (pick(static_cast<EvKind>(payload.at(event_at + offsetof(SimEvent, kind))))) {
      return event_at;
    }
    at = event_at + sizeof(SimEvent);
  }
  throw std::logic_error("no matching heap event");
}

/// Seal `payload` in a fresh envelope (valid hash), write it and restore
/// from it; the restore must throw a typed snapshot error, naming `what`
/// when given.
void expect_snapshot_error(const std::vector<std::uint8_t>& payload, const ServiceConfig& config,
                           const std::string& name, const std::string& what = "") {
  StateWriter w;
  w.bytes(payload.data(), payload.size());
  const std::string path = temp_path(name);
  write_state_file(path, w.finish());
  try {
    (void)Session::restore(Cluster::paper30(), config, path);
    ADD_FAILURE() << name << ": restore accepted a structurally bad payload";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot:", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(ServiceCheckpoint, ResealedHugeCountsAndBadIndicesThrowTypedErrors) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session session(Cluster::paper30(), config);
  session.run_until(kT1);
  const std::vector<std::uint8_t> sealed = session.serialize();
  // Envelope: 9-byte magic, u32 version, u64 length, payload, u64 hash.
  const std::size_t header = 9 + 4 + 8;
  const std::vector<std::uint8_t> payload(sealed.begin() + static_cast<std::ptrdiff_t>(header),
                                          sealed.end() - 8);

  const SlotLayout layout = slot_layout(payload);
  const std::size_t phases_at = layout.phases_at;
  const std::uint64_t phases = get_u64(payload, phases_at);
  ASSERT_GE(phases, 1u);
  ASSERT_LE(phases, 64u) << "phase-count offset is off";
  ASSERT_GE(layout.free.size(), 2u) << "the checkpoint must hold free job slots";
  const std::uint32_t free_slot = layout.free.front();

  // Arrivals section: pending-arrival count and indices, then the active
  // count and indices.
  const std::size_t arrivals_at = after_section(payload, 0x41525256u);  // 'ARRV'
  const std::size_t active_at = arrivals_at + 8 + 4 * get_u64(payload, arrivals_at);
  const std::uint64_t active = get_u64(payload, active_at);
  ASSERT_GE(active, 1u) << "the checkpoint must hold an active job";
  ASSERT_LE(active, static_cast<std::uint64_t>(session.totals().jobs_ingested));

  {
    // The resealed, unmodified payload restores: the offsets above are the
    // only thing the cases below change.
    StateWriter w;
    w.bytes(payload.data(), payload.size());
    const std::string path = temp_path("dollymp_service_reseal_ok.ckpt");
    write_state_file(path, w.finish());
    EXPECT_NO_THROW((void)Session::restore(Cluster::paper30(), config, path));
  }
  {
    auto bad = payload;
    put_u64(bad, phases_at, std::uint64_t{1} << 60);
    expect_snapshot_error(bad, config, "dollymp_service_huge_phases.ckpt");
  }
  {
    auto bad = payload;
    put_u64(bad, active_at, std::uint64_t{1} << 60);
    expect_snapshot_error(bad, config, "dollymp_service_huge_active.ckpt");
  }
  for (const std::int32_t index : {-1, 1 << 30}) {
    auto bad = payload;
    put_i32(bad, active_at + 8, index);
    expect_snapshot_error(bad, config,
                          "dollymp_service_bad_active_" + std::to_string(index) + ".ckpt");
  }
  {
    // A pending completion naming the job slot one past the restored ones.
    auto bad = payload;
    const std::size_t event_at =
        find_heap_event(bad, [](EvKind kind) { return kind == EvKind::kCompletion; });
    put_i32(bad, event_at + offsetof(SimEvent, job_index),
            static_cast<std::int32_t>(layout.slots));
    expect_snapshot_error(bad, config, "dollymp_service_bad_event_job.ckpt",
                          "heap event job");
  }
  {
    // A pending completion naming a free slot.
    auto bad = payload;
    const std::size_t event_at =
        find_heap_event(bad, [](EvKind kind) { return kind == EvKind::kCompletion; });
    put_i32(bad, event_at + offsetof(SimEvent, job_index),
            static_cast<std::int32_t>(free_slot));
    expect_snapshot_error(bad, config, "dollymp_service_event_on_free_slot.ckpt",
                          "names a free job slot");
  }
  {
    // The free-slot list naming one slot twice, or a slot past the last.
    auto bad = payload;
    put_i32(bad, layout.free_at + 4, static_cast<std::int32_t>(free_slot));
    expect_snapshot_error(bad, config, "dollymp_service_free_slot_twice.ckpt",
                          "listed twice");
    bad = payload;
    put_i32(bad, layout.free_at, static_cast<std::int32_t>(layout.slots));
    expect_snapshot_error(bad, config, "dollymp_service_free_slot_range.ckpt",
                          "outside the");
  }
  {
    // A free slot whose job is unfinished, or still has events in flight.
    const std::size_t record_at = layout.jobs_at + kJobRecordBytes * free_slot;
    auto bad = payload;
    bad.at(record_at + kJobFinishedAt) = 0;
    expect_snapshot_error(bad, config, "dollymp_service_free_slot_unfinished.ckpt",
                          "unfinished or has pending events");
    bad = payload;
    put_i32(bad, record_at + kJobPendingEventsAt, 1);
    expect_snapshot_error(bad, config, "dollymp_service_free_slot_pending.ckpt",
                          "unfinished or has pending events");
  }
  {
    // A free slot in the active list, or in the pending-arrival order (one
    // index inserted ahead of the existing ones).
    auto bad = payload;
    put_i32(bad, active_at + 8, static_cast<std::int32_t>(free_slot));
    expect_snapshot_error(bad, config, "dollymp_service_free_slot_active.ckpt",
                          "names a free job slot");
    bad = payload;
    put_u64(bad, arrivals_at, get_u64(payload, arrivals_at) + 1);
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(arrivals_at + 8), 4, 0);
    put_i32(bad, arrivals_at + 8, static_cast<std::int32_t>(free_slot));
    expect_snapshot_error(bad, config, "dollymp_service_free_slot_arrival.ckpt",
                          "names a free job slot");
  }
  {
    // Extents that do not tile the flat arrays: a job's phases shifted by
    // one, and a phase whose task count overruns the next phase's tasks.
    auto bad = payload;
    const std::uint32_t phase_begin = get_u32(payload, layout.job_extents_at + 8);
    put_i32(bad, layout.job_extents_at + 8, static_cast<std::int32_t>(phase_begin + 1));
    expect_snapshot_error(bad, config, "dollymp_service_job_extent.ckpt",
                          "does not tile");
    bad = payload;
    put_i32(bad, layout.phase_extents_at + 4, std::int32_t{1} << 30);
    expect_snapshot_error(bad, config, "dollymp_service_phase_extent.ckpt",
                          "does not tile");
    // A live spec whose first phase's task count disagrees with its extent
    // (the phase's name, then its task count).
    bad = payload;
    const std::size_t name_at = phases_at + 8;
    const std::size_t tasks_at = name_at + 8 + get_u64(payload, name_at);
    put_i32(bad, tasks_at, static_cast<std::int32_t>(get_u32(payload, tasks_at) + 1));
    expect_snapshot_error(bad, config, "dollymp_service_spec_shape.ckpt",
                          "task extent mismatch");
  }
  {
    // A restored copy naming the server one past the cluster, and an active
    // copy restored inactive (the core's active-copy count disagrees).
    auto bad = payload;
    const std::size_t copy_at = find_copy(payload, layout, /*active=*/true);
    put_i32(bad, copy_at + offsetof(CopyRuntime, server),
            static_cast<std::int32_t>(Cluster::paper30().size()));
    expect_snapshot_error(bad, config, "dollymp_service_copy_server.ckpt", "copy server");
    bad = payload;
    bad.at(copy_at + offsetof(CopyRuntime, active)) = 0;
    expect_snapshot_error(bad, config, "dollymp_service_copy_count.ckpt",
                          "active copies restored");
  }
  {
    // A pending machine event naming the server one past the cluster.
    const ServiceConfig faulty = service_config("dollymp2", true);
    Session faulted(Cluster::paper30(), faulty);
    faulted.run_until(kT1);
    const std::vector<std::uint8_t> faulted_sealed = faulted.serialize();
    std::vector<std::uint8_t> bad(
        faulted_sealed.begin() + static_cast<std::ptrdiff_t>(header),
        faulted_sealed.end() - 8);
    const std::size_t event_at = find_heap_event(bad, [](EvKind kind) {
      return kind == EvKind::kServerFailure || kind == EvKind::kServerRepair;
    });
    put_i32(bad, event_at + offsetof(SimEvent, server),
            static_cast<std::int32_t>(Cluster::paper30().size()));
    expect_snapshot_error(bad, faulty, "dollymp_service_bad_event_server.ckpt",
                          "heap event server");
  }
}

// ---- what-if forks ----------------------------------------------------------

TEST(ServiceFork, SamePolicyForkReplaysParentsFutureAndLeavesParentAlone) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);
  const std::uint64_t parent_hash_at_fork = parent.stream_hash();
  const std::uint64_t parent_records_at_fork = parent.records_written();

  auto child = parent.fork({});
  EXPECT_EQ(child->clock(), kT1);
  child->run_until(kT2);

  // The parent is untouched by the child's run.
  EXPECT_EQ(parent.clock(), kT1);
  EXPECT_EQ(parent.stream_hash(), parent_hash_at_fork);
  EXPECT_EQ(parent.records_written(), parent_records_at_fork);

  // A same-policy fork IS the parent's own future, bit for bit.
  parent.run_until(kT2);
  EXPECT_EQ(child->stream_hash(), parent.stream_hash());
  EXPECT_EQ(child->records_written(), parent.records_written());
  EXPECT_EQ(child->totals().jobs_completed, parent.totals().jobs_completed);
}

TEST(ServiceFork, PolicySwitchForkDivergesWithoutPerturbingParent) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);
  const std::uint64_t parent_hash_at_fork = parent.stream_hash();
  const std::vector<std::size_t> free_at_fork = free_slots(parent);
  ASSERT_FALSE(free_at_fork.empty());

  Session::ForkOptions options;
  options.policy = "drf";
  auto child = parent.fork(options);
  EXPECT_EQ(child->policy_name(), "drf");
  EXPECT_EQ(free_slots(*child), free_at_fork);
  child->run_until(kT2);
  parent.run_until(kT2);
  EXPECT_TRUE(any_reused(*child, free_at_fork));
  EXPECT_TRUE(any_reused(parent, free_at_fork));

  EXPECT_EQ(parent.policy_name(), "dollymp2");
  EXPECT_NE(parent.stream_hash(), parent_hash_at_fork);  // parent advanced
  // Different placement policies produce different decision streams.
  EXPECT_NE(child->stream_hash(), parent.stream_hash());
  // Both futures ingest the same arrival stream, though.
  EXPECT_EQ(child->totals().jobs_ingested, parent.totals().jobs_ingested);
}

TEST(ServiceFork, QuarantineForkTakesServersOutOfService) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);

  Session::ForkOptions options;
  options.quarantine = {0, 1, 2};
  auto child = parent.fork(options);
  child->run_until(kT2);
  parent.run_until(kT2);

  // Losing three servers changes the placement stream.
  EXPECT_NE(child->stream_hash(), parent.stream_hash());
  EXPECT_EQ(child->totals().jobs_ingested, parent.totals().jobs_ingested);
}

TEST(ServiceFork, QuarantineOutOfRangeThrows) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(8);

  Session::ForkOptions options;
  options.quarantine = {100000};
  EXPECT_THROW((void)parent.fork(options), std::invalid_argument);
}

TEST(ServiceFork, ForkSurvivesParentSegmentReaping) {
  // The child holds the parent's spec segments via shared_ptr, so even after
  // the parent reaps every drained segment the child's jobs stay valid.
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);
  auto child = parent.fork({});
  // Drain the parent far enough that its early segments are reaped.
  parent.run_until(kT2 * 4);
  child->run_until(kT2);
  EXPECT_GT(child->totals().jobs_completed, 0);
}

// ---- memory bound -----------------------------------------------------------

TEST(ServiceMemory, RetainedSpecsTrackLiveJobsNotTotalArrivals) {
  ServiceConfig config = service_config("dollymp2", false);
  config.arrivals.rate_per_second = 0.2;
  Session session(Cluster::paper30(), config);
  std::size_t peak_retained = 0;
  for (SimTime t = 200; t <= 2400; t += 200) {
    session.run_until(t);
    peak_retained = std::max(peak_retained, session.specs_retained());
  }
  const auto ingested = session.totals().jobs_ingested;
  ASSERT_GT(ingested, 100);
  // Retention is bounded by live jobs plus one pump chunk of granularity —
  // far below total arrivals once the stream is several chunks long.
  EXPECT_LT(peak_retained, static_cast<std::size_t>(ingested));
  EXPECT_GT(session.totals().jobs_completed, 0);
}

}  // namespace
}  // namespace dollymp
