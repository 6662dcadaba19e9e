// Fault-injection coverage (src/fault + the hardened error paths it
// exercises):
//   - registry semantics: every trigger policy fires deterministically,
//     configure resets counters, dry runs enumerate the workload's
//     failpoints,
//   - the zero-cost contract: in a default build the MP_FAILPOINT macro
//     compiles to nothing, so a storage workload interns no points,
//   - storage sweep (every storage.* failpoint x fire-on-hit-N): a
//     terminal injected error must never crash or lose an in-process
//     event — the engine's full log stays byte-identical to a no-store
//     reference, the store either survives or latches sticky failed()
//     (ErrorPolicy::kDegrade), and a fresh recovery of the directory
//     yields a clean prefix of the reference sequence,
//   - transient errors (EINTR / EAGAIN / short writes) retry to full
//     byte-identical durability with no degradation,
//   - ErrorPolicy::kFailStop surfaces storage::IoError instead.
// Labelled `fault`: tools/check.sh CHECK_FAULTS=1 builds a -DMP_FAULTS=ON
// side tree and runs exactly this suite there; in the default build the
// injection sweeps GTEST_SKIP themselves and only the registry and
// zero-cost tests run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "fault/fault.h"
#include "ndlog/parser.h"
#include "storage/segment_store.h"
#include "test_util.h"

namespace mp::fault {
namespace {

namespace fs = std::filesystem;

using eval::Engine;
using eval::EngineOptions;
using storage::SegmentStore;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mp_fault/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir + "/segs";  // the store itself creates the leaf directory
}

using testutil::log_lines;
using testutil::store_lines;

ndlog::Program ring_prog() {
  return ndlog::parse_program(testutil::ring_program(24));
}

// Store knobs that cross the write/fsync failpoints often: tiny group
// buffer (flush per section), small segments (several rotations), fsync
// on every append, zero backoff so retry sweeps stay fast.
EngineOptions faulty_engine_opts(const std::string& dir) {
  EngineOptions opt;
  opt.segment_dir = dir;
  opt.segment_store.rotate_bytes = 4 << 10;
  opt.segment_store.group_buffer_bytes = 512;
  opt.segment_store.fsync = storage::FsyncPolicy::kOnAppend;
  opt.segment_store.backoff_initial_us = 0;
  return opt;
}

// The storage workload under test: the ring trace in chunks with a
// compact after each, so sections stream into the store throughout.
void run_storage_workload(Engine& e) {
  const std::vector<eval::Tuple> trace = testutil::ring_trace(8, 6);
  const size_t chunk = trace.size() / 5 + 1;
  for (size_t i = 0; i < trace.size(); i += chunk) {
    const size_t n = std::min(chunk, trace.size() - i);
    e.insert_batch(std::span<const eval::Tuple>(trace.data() + i, n));
    e.log().compact(0);
  }
}

// The no-store reference for the workload above.
std::vector<std::string> reference_lines() {
  Engine plain(ring_prog());
  run_storage_workload(plain);
  return log_lines(plain.log());
}

// ---------------------------------------------------------------------
// Registry semantics (run in every build: the registry class is always
// compiled; only the macro sites come and go).
// ---------------------------------------------------------------------

TEST(FaultRegistry, PolicyModesFireDeterministically) {
  Registry& reg = Registry::global();
  reg.clear_all();

  Policy nth;
  nth.mode = Policy::Mode::kNth;
  nth.n = 3;
  nth.error_code = ENOSPC;
  reg.configure("p.nth", nth);
  std::vector<int> got;
  for (int i = 0; i < 6; ++i) got.push_back(reg.hit("p.nth"));
  EXPECT_EQ(got, (std::vector<int>{0, 0, ENOSPC, 0, 0, 0}));
  EXPECT_EQ(reg.hits("p.nth"), 6u);
  EXPECT_EQ(reg.fires("p.nth"), 1u);

  Policy every;
  every.mode = Policy::Mode::kEveryK;
  every.n = 2;
  every.error_code = EIO;
  reg.configure("p.every", every);
  got.clear();
  for (int i = 0; i < 6; ++i) got.push_back(reg.hit("p.every"));
  EXPECT_EQ(got, (std::vector<int>{0, EIO, 0, EIO, 0, EIO}));

  Policy once;
  once.mode = Policy::Mode::kOneShot;
  once.error_code = EAGAIN;
  reg.configure("p.once", once);
  EXPECT_EQ(reg.hit("p.once"), EAGAIN);
  EXPECT_EQ(reg.hit("p.once"), 0);
  EXPECT_EQ(reg.hit("p.once"), 0);
  EXPECT_EQ(reg.fires("p.once"), 1u);

  Policy always;
  always.mode = Policy::Mode::kAlways;
  always.error_code = EINTR;
  reg.configure("p.always", always);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(reg.hit("p.always"), EINTR);

  // Unarmed points never fire but are interned (dry-run enumeration).
  EXPECT_EQ(reg.hit("p.unarmed"), 0);
  EXPECT_EQ(reg.hits("p.unarmed"), 1u);
  EXPECT_EQ(reg.fires("p.unarmed"), 0u);
  reg.clear_all();
}

TEST(FaultRegistry, RandomModeIsSeedDeterministic) {
  Registry& reg = Registry::global();
  reg.clear_all();
  Policy rnd;
  rnd.mode = Policy::Mode::kRandom;
  rnd.probability = 0.5;
  rnd.seed = 42;
  rnd.error_code = EIO;

  auto pattern = [&] {
    reg.configure("p.rnd", rnd);
    std::vector<int> out;
    for (int i = 0; i < 64; ++i) out.push_back(reg.hit("p.rnd"));
    return out;
  };
  const std::vector<int> a = pattern();
  const std::vector<int> b = pattern();
  EXPECT_EQ(a, b) << "same seed must reproduce the same fire pattern";
  const uint64_t fires = reg.fires("p.rnd");
  EXPECT_GT(fires, 8u);   // p=0.5 over 64 hits: both tails are
  EXPECT_LT(fires, 56u);  // astronomically unlikely
  reg.clear_all();
}

TEST(FaultRegistry, ConfigureResetsCountersAndPointsEnumerateSorted) {
  Registry& reg = Registry::global();
  reg.clear_all();
  reg.hit("b.point");
  reg.hit("a.point");
  reg.hit("a.point");
  const std::vector<PointStats> pts = reg.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].name, "a.point");
  EXPECT_EQ(pts[0].hits, 2u);
  EXPECT_EQ(pts[1].name, "b.point");

  Policy nth;
  nth.mode = Policy::Mode::kNth;
  nth.n = 1;
  reg.configure("a.point", nth);  // counters reset: next hit is the 1st
  EXPECT_EQ(reg.hits("a.point"), 0u);
  EXPECT_NE(reg.hit("a.point"), 0);

  reg.clear("a.point");  // disarmed but still enumerable
  EXPECT_EQ(reg.hit("a.point"), 0);
  EXPECT_EQ(reg.points().size(), 2u);
  reg.clear_all();
  EXPECT_TRUE(reg.points().empty());
}

// The zero-cost half of the contract: without MP_FAULTS the macro is a
// literal, so a storage workload crosses no failpoint and interns no
// point name. (The other half — the compiled-in sites enumerating — is
// the sweep's dry run below; the perf half is tools/check.sh's bench
// floor, measured on this same default build.)
TEST(FaultRegistry, DefaultBuildCompilesFailpointsOut) {
  if (compiled_in()) GTEST_SKIP() << "MP_FAULTS build: sites compiled in";
  Registry::global().clear_all();
  const std::string dir = fresh_dir("zero_cost");
  {
    Engine e(ring_prog(), faulty_engine_opts(dir));
    run_storage_workload(e);
  }
  EXPECT_TRUE(Registry::global().points().empty())
      << "a default build must not consult the registry";
}

// ---------------------------------------------------------------------
// Storage injection sweeps (MP_FAULTS builds only).
// ---------------------------------------------------------------------

TEST(FaultSweep, StorageFailpointsByHitCountDegradeCleanly) {
  if (!compiled_in()) GTEST_SKIP() << "needs -DMP_FAULTS=ON (CHECK_FAULTS=1)";
  Registry& reg = Registry::global();
  const std::vector<std::string> want = reference_lines();
  ASSERT_GT(want.size(), 100u);

  // Dry run: nothing armed; enumerate every failpoint the workload
  // crosses. This is how new storage failpoints join the sweep without a
  // hand-maintained list.
  reg.clear_all();
  {
    Engine e(ring_prog(), faulty_engine_opts(fresh_dir("dry_run")));
    run_storage_workload(e);
  }
  std::vector<std::string> points;
  for (const PointStats& p : reg.points()) {
    if (p.name.rfind("storage.", 0) == 0) points.push_back(p.name);
  }
  for (const char* must : {"storage.segment.mkdir", "storage.segment.open",
                           "storage.segment.write", "storage.segment.fsync",
                           "storage.segment.short_write"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), must), points.end())
        << "dry run did not cross " << must;
  }

  for (const std::string& point : points) {
    for (const uint64_t n : {1u, 2u, 7u}) {
      SCOPED_TRACE(point + " on hit " + std::to_string(n));
      reg.clear_all();
      Policy p;
      p.mode = Policy::Mode::kNth;
      p.n = n;
      // ENOSPC and EIO are both terminal; alternating exercises the
      // kNoSpace and kIoError status paths.
      p.error_code = n % 2 == 1 ? ENOSPC : EIO;
      reg.configure(point, p);

      const std::string dir =
          fresh_dir("sweep_" + point + "_" + std::to_string(n));
      {
        // kDegrade (the default): nothing here may throw or crash.
        Engine e(ring_prog(), faulty_engine_opts(dir));
        run_storage_workload(e);
        // Zero in-process event loss, degraded or not: the full log —
        // durable prefix, retained buffer and live suffix (every event
        // compacted after the failure stays there) stitched together — is
        // byte-identical to the no-store reference.
        EXPECT_EQ(log_lines(e.log()), want);
        const SegmentStore* store = e.segments();
        // short_write never makes a store fail (partial progress is not
        // an error); terminal points that actually fired must latch.
        if (store != nullptr && store->failed()) {
          EXPECT_GE(reg.fires(point), 1u);
          EXPECT_FALSE(store->status().ok());
        }
        // The engine stays live either way.
        e.insert(eval::Tuple{"Token", {Value(1), Value(99), Value(0)}});
        EXPECT_GT(e.log().size(), want.size());
      }

      reg.clear_all();  // recovery below must see no injection
      if (fs::is_directory(dir)) {
        // Whatever reached the directory recovers as a clean contiguous
        // prefix of the reference sequence — never reordered, torn or
        // interleaved garbage.
        SegmentStore rec(dir);
        const std::vector<std::string> got = store_lines(rec);
        ASSERT_LE(got.size(), want.size() + 50u);  // + the extra insert
        for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "divergence at recovered event " << i;
        }
        EXPECT_EQ(rec.recovered_events(), got.size());
      }
    }
  }
  reg.clear_all();
}

TEST(FaultSweep, TransientErrorsRetryToByteIdenticalDurability) {
  if (!compiled_in()) GTEST_SKIP() << "needs -DMP_FAULTS=ON (CHECK_FAULTS=1)";
  Registry& reg = Registry::global();
  const std::vector<std::string> want = reference_lines();

  struct Case {
    const char* point;
    Policy::Mode mode;
    uint64_t n;
    int code;
  };
  const Case cases[] = {
      // EINTR: retried unconditionally, never counted against the budget.
      {"storage.segment.write", Policy::Mode::kEveryK, 2, EINTR},
      // EAGAIN: counted, backed off, retried within the budget.
      {"storage.segment.write", Policy::Mode::kEveryK, 3, EAGAIN},
      {"storage.segment.fsync", Policy::Mode::kEveryK, 3, EAGAIN},
      // Short writes on every call: progress, not an error.
      {"storage.segment.short_write", Policy::Mode::kAlways, 0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.point) + " code " + std::to_string(c.code));
    reg.clear_all();
    Policy p;
    p.mode = c.mode;
    p.n = c.n;
    p.error_code = c.code;
    reg.configure(c.point, p);

    const std::string dir = fresh_dir(std::string("transient_") + c.point +
                                      "_" + std::to_string(c.code));
    {
      Engine e(ring_prog(), faulty_engine_opts(dir));
      run_storage_workload(e);
      ASSERT_NE(e.segments(), nullptr);
      EXPECT_FALSE(e.segments()->failed())
          << "transient errors must never degrade the store: "
          << e.segments()->status().to_string();
      EXPECT_GE(reg.fires(c.point), 1u) << "injection never triggered";
      if (c.code == EAGAIN) {
        EXPECT_GT(e.segments()->retries(), 0u);
        EXPECT_GT(e.segments()->write_errors(), 0u);
      }
      EXPECT_EQ(log_lines(e.log()), want);
    }
    reg.clear_all();
    // Full byte-identical durability: the retries hid the faults
    // completely.
    SegmentStore rec(dir);
    EXPECT_EQ(rec.recovered_events(), want.size());
    EXPECT_EQ(store_lines(rec), want);
  }
}

TEST(FaultSweep, RetryExhaustionLatchesDegradedWithNoEventLoss) {
  if (!compiled_in()) GTEST_SKIP() << "needs -DMP_FAULTS=ON (CHECK_FAULTS=1)";
  Registry& reg = Registry::global();
  const std::vector<std::string> want = reference_lines();

  reg.clear_all();
  Policy p;
  p.mode = Policy::Mode::kAlways;  // EAGAIN forever: the budget must bound it
  p.error_code = EAGAIN;
  reg.configure("storage.segment.write", p);

  EngineOptions opt = faulty_engine_opts(fresh_dir("exhaustion"));
  opt.segment_store.max_retries = 2;
  Engine e(ring_prog(), opt);
  run_storage_workload(e);
  ASSERT_NE(e.segments(), nullptr);
  EXPECT_TRUE(e.segments()->failed());
  EXPECT_EQ(e.segments()->status().code(), StatusCode::kRetryExhausted)
      << e.segments()->status().to_string();
  EXPECT_GT(e.segments()->retries(), 0u);
  // Degraded, not lossy: the retained buffer plus the events left live
  // keep the full sequence replayable in-process.
  EXPECT_EQ(log_lines(e.log()), want);
  reg.clear_all();
}

TEST(FaultSweep, FailStopPolicyThrowsIoErrorAndEngineStaysUsable) {
  if (!compiled_in()) GTEST_SKIP() << "needs -DMP_FAULTS=ON (CHECK_FAULTS=1)";
  Registry& reg = Registry::global();
  reg.clear_all();
  Policy p;
  p.mode = Policy::Mode::kNth;
  p.n = 1;
  p.error_code = ENOSPC;
  reg.configure("storage.segment.write", p);

  EngineOptions opt = faulty_engine_opts(fresh_dir("failstop"));
  opt.segment_store.on_error = storage::ErrorPolicy::kFailStop;
  Engine e(ring_prog(), opt);
  const std::vector<eval::Tuple> trace = testutil::ring_trace(8, 6);
  e.insert_batch(trace);
  EXPECT_THROW(e.log().compact(0), storage::IoError);
  ASSERT_NE(e.segments(), nullptr);
  EXPECT_TRUE(e.segments()->failed());
  EXPECT_EQ(e.segments()->status().code(), StatusCode::kNoSpace);
  reg.clear_all();

  // After the throw the engine is still consistent: the failed store is
  // sticky (no second throw), compaction moves nothing, inserts run, and
  // the accepted section plus the live suffix walk the full record.
  const eval::Tuple extra{"Token", {Value(2), Value(77), Value(0)}};
  const size_t before = e.log().size();
  e.insert(extra);
  EXPECT_GT(e.log().size(), before);
  const size_t live = e.log().live_size();
  ASSERT_GT(live, 0u);
  size_t compacted = 1;
  EXPECT_NO_THROW(compacted = e.log().compact(0));
  EXPECT_EQ(compacted, 0u);
  EXPECT_EQ(e.log().live_size(), live);

  Engine plain(ring_prog());
  plain.insert_batch(trace);
  plain.insert(extra);
  EXPECT_EQ(log_lines(e.log()), log_lines(plain.log()));
}

TEST(FaultSweep, AttachTimeFaultYieldsInertStoreAndRamOnlyEngine) {
  if (!compiled_in()) GTEST_SKIP() << "needs -DMP_FAULTS=ON (CHECK_FAULTS=1)";
  Registry& reg = Registry::global();
  const std::vector<std::string> want = reference_lines();

  reg.clear_all();
  Policy p;
  p.mode = Policy::Mode::kOneShot;
  p.error_code = EACCES;
  reg.configure("storage.segment.mkdir", p);

  Engine e(ring_prog(), faulty_engine_opts(fresh_dir("attach")));
  ASSERT_NE(e.segments(), nullptr);
  EXPECT_TRUE(e.segments()->failed());
  EXPECT_EQ(e.segments()->status().code(), StatusCode::kIoError);
  // The engine never attached the failed store as a spill: compaction
  // has no home, every event stays live, and the log stays
  // byte-identical to the reference.
  run_storage_workload(e);
  EXPECT_EQ(e.log().base_id(), 0u);
  EXPECT_EQ(log_lines(e.log()), want);
  EXPECT_EQ(e.segments()->events(), 0u);
  reg.clear_all();
}

}  // namespace
}  // namespace mp::fault
