// Durable segment-store coverage (src/storage):
//   - standalone round trip: segments written through the engine's
//     checkpoint spill decode byte-identically (full to_string format,
//     causes included) with no engine, catalog or pool attached,
//   - kill-at-every-byte crash sweep: the newest segment is truncated at
//     each byte offset, recovery must come back with exactly the durable
//     prefix (monotone in the cut point, line-identical to the reference
//     sequence, tables matching a replay of that prefix's base stream),
//   - recovery continuation: recover -> replay -> set_spill -> keep
//     appending equals one uninterrupted engine,
//   - store mechanics: rotation at section boundaries, group-commit
//     buffering, fsync policy knob,
//   - hostile input: hand-built sections with valid CRCs but malformed
//     entries or name records end the valid prefix cleanly, never read
//     out of bounds (run under CHECK_ASAN=1),
//   - seeded corruption sweep: bit flips and rewritten length and count
//     fields (CRCs recomputed) in a real segment's file header, chunk
//     headers, entries and name records end in a clean rejection or a
//     truncated valid prefix, in the reader and in recovery (run under
//     CHECK_ASAN=1).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backtest/replay.h"
#include "eval/ckpt_format.h"
#include "eval/engine.h"
#include "ndlog/parser.h"
#include "scenarios/scenario.h"
#include "storage/segment.h"
#include "storage/segment_store.h"
#include "test_util.h"
#include "util/rng.h"

namespace mp::storage {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mp_storage/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

using testutil::log_lines;
using testutil::store_lines;

// Inserts a scenario trace in chunks, compacting after each so the store
// accumulates several self-contained sections.
void run_with_sections(eval::Engine& e, const std::vector<eval::Tuple>& trace,
                       size_t chunk) {
  for (size_t i = 0; i < trace.size(); i += chunk) {
    const size_t n = std::min(chunk, trace.size() - i);
    e.insert_batch(std::span<const eval::Tuple>(trace.data() + i, n));
    e.log().compact(0);
  }
}

TEST(SegmentStore, StandaloneReaderDecodesByteIdenticalSequence) {
  for (const scenario::Scenario& s : scenario::all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    const std::string dir = fresh_dir("roundtrip_" + s.id);
    const std::vector<eval::Tuple> trace = scenario::engine_trace(s, 400);

    // Reference: an identical engine with no storage attached.
    eval::Engine plain(s.program);
    plain.insert_batch(trace);
    const std::vector<std::string> want = log_lines(plain.log());
    ASSERT_GT(want.size(), 50u);

    eval::EngineOptions opt;
    opt.segment_dir = dir;
    opt.segment_store.rotate_bytes = 8 << 10;  // several segments
    {
      eval::Engine e(s.program, opt);
      run_with_sections(e, trace, trace.size() / 7 + 1);
      ASSERT_EQ(e.log().live_size(), 0u);
      ASSERT_EQ(e.log().size(), want.size());
      // Spill replay through the log agrees with the uncompacted reference.
      EXPECT_EQ(log_lines(e.log()), want);
      ASSERT_GT(e.segments()->segment_count(), 1u)
          << "rotation never triggered: sweep is single-segment";
      // byte_estimate() is exact for a fully-spilled log: every byte is
      // on disk (or queued in the group buffer) and accounted.
      EXPECT_EQ(e.log().byte_estimate(), e.segments()->bytes());
    }  // engine gone: nothing live remains

    // Standalone decode: a fresh store over the directory, no engine, no
    // catalog, no pool. Byte-identical event sequence is the acceptance
    // criterion for the self-contained format.
    SegmentStore store(dir);
    EXPECT_EQ(store.recovered_events(), want.size());
    EXPECT_EQ(store.dropped_bytes(), 0u);
    EXPECT_EQ(store_lines(store), want);

    // And per-file: each segment decodes on its own (sections are
    // self-contained, so a reader never needs a previous segment).
    size_t total = 0;
    for (size_t i = 0; i < store.segment_count(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "seg-%06zu.mpseg", i);
      SegmentReader r(dir + "/" + name);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.first_id(), total);
      total += r.events();
    }
    EXPECT_EQ(total, want.size());
  }
}

TEST(SegmentStore, ReplayBaseStreamRebuildsTablesWithoutAnEventLog) {
  const scenario::Scenario s = scenario::all_scenarios().front();
  const std::string dir = fresh_dir("replay_base");
  const std::vector<eval::Tuple> trace = scenario::engine_trace(s, 400);

  eval::Engine plain(s.program);
  plain.insert_batch(trace);

  eval::EngineOptions opt;
  opt.segment_dir = dir;
  {
    eval::Engine e(s.program, opt);
    run_with_sections(e, trace, 64);
  }

  // The mmap-backed replay path: SegmentStore -> fresh engine, no source
  // EventLog materialized anywhere.
  SegmentStore store(dir);
  eval::Engine rebuilt(s.program);
  const size_t applied = backtest::replay_base_stream(store, rebuilt);
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(testutil::table_multisets(rebuilt), testutil::table_multisets(plain));
  EXPECT_EQ(testutil::event_sequence_hash(rebuilt.log()),
            testutil::event_sequence_hash(plain.log()));
}

// --- crash recovery -----------------------------------------------------

struct BaseEv {
  size_t event_idx;  // position in the full event sequence
  bool insert;
  eval::Tuple tuple;
  eval::TagMask tags;
};

std::vector<BaseEv> base_stream(const eval::EventLog& log) {
  std::vector<BaseEv> out;
  size_t idx = 0;
  log.for_each_event([&](const eval::EventView& ev) {
    const eval::Tuple t{std::string(ev.table), *ev.row};
    if (ev.kind == eval::EventKind::Insert) {
      out.push_back(BaseEv{idx, true, t, ev.tags});
    } else if (ev.kind == eval::EventKind::Delete) {
      out.push_back(BaseEv{idx, false, t, ev.tags});
    }
    ++idx;
  });
  return out;
}

// Tables after applying the base events that fall inside the first
// `prefix` events of the recorded sequence.
std::map<std::string, std::multiset<std::string>> tables_at_prefix(
    const scenario::Scenario& s, const std::vector<BaseEv>& base,
    size_t prefix) {
  eval::Engine e(s.program);
  for (const BaseEv& b : base) {
    if (b.event_idx >= prefix) break;
    if (b.insert) {
      e.insert(b.tuple, b.tags);
    } else {
      e.remove(b.tuple);
    }
  }
  return testutil::table_multisets(e);
}

// Kill-at-every-byte sweep: the reference run writes several segments;
// the newest one is then truncated at every byte offset, and recovery
// over the mutilated directory must yield exactly the durable prefix —
// never garbage, never a crash, monotonically more events as the cut
// moves right. MP_CRASH_SWEEP=all (tools/check.sh CHECK_CRASH=1) sweeps
// every scenario at every offset; the default sweeps the first scenario
// exhaustively and strides through the rest.
TEST(SegmentStore, CrashRecoverySweepRecoversDurablePrefixAtEveryOffset) {
  const char* mode = std::getenv("MP_CRASH_SWEEP");
  const bool exhaustive_all = mode != nullptr && std::string(mode) == "all";
  const auto scenarios = scenario::all_scenarios();
  for (size_t si = 0; si < scenarios.size(); ++si) {
    const scenario::Scenario& s = scenarios[si];
    SCOPED_TRACE("scenario " + s.id);
    const size_t stride = (exhaustive_all || si == 0) ? 1 : 7;
    const std::string dir = fresh_dir("crash_" + s.id);
    const std::vector<eval::Tuple> trace = scenario::engine_trace(s, 120);

    eval::Engine plain(s.program);
    plain.insert_batch(trace);
    const std::vector<std::string> ref_lines = log_lines(plain.log());
    const std::vector<BaseEv> base = base_stream(plain.log());

    eval::EngineOptions opt;
    opt.segment_dir = dir;
    opt.segment_store.rotate_bytes = 12 << 10;
    {
      eval::Engine e(s.program, opt);
      run_with_sections(e, trace, 16);
      e.segments()->flush(true);
    }

    // Newest segment + a pristine copy of its bytes. Earlier (sealed)
    // segments are untouched by a crash — group commit writes strictly
    // sequentially — so the per-cut work validates the newest file; full
    // directory recovery (SegmentStore, which also exercises the
    // truncate-to-valid-prefix path) runs at every section boundary.
    std::vector<std::string> seg_files;
    for (const auto& ent : fs::directory_iterator(dir)) {
      seg_files.push_back(ent.path().string());
    }
    std::sort(seg_files.begin(), seg_files.end());
    ASSERT_GT(seg_files.size(), 1u) << "sweep needs a multi-segment dir";
    const std::string newest = seg_files.back();
    std::vector<char> pristine;
    {
      std::ifstream in(newest, std::ios::binary);
      pristine.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(pristine.empty());
    const size_t sealed_events = [&] {
      SegmentReader r(newest);
      EXPECT_TRUE(r.ok());
      EXPECT_GT(r.events(), 0u);
      return static_cast<size_t>(r.first_id());
    }();

    // Every cut offset for the exhaustive sweep; a strided subset always
    // includes the full file so the final check is never skipped.
    std::vector<size_t> cuts;
    for (size_t cut = 0; cut < pristine.size(); cut += stride) {
      cuts.push_back(cut);
    }
    cuts.push_back(pristine.size());

    size_t prev_events = 0;
    size_t boundaries = 0;
    for (const size_t cut : cuts) {
      // Simulate the kill: the newest file holds only its first `cut`
      // bytes.
      {
        std::ofstream out(newest, std::ios::binary | std::ios::trunc);
        out.write(pristine.data(), static_cast<std::streamsize>(cut));
      }
      SegmentReader r(newest);
      const size_t k = r.ok() ? r.events() : 0;
      ASSERT_GE(k, prev_events) << "cut=" << cut
          << ": recovery went backwards as the tail grew";
      ASSERT_LE(sealed_events + k, ref_lines.size());
      size_t at = sealed_events;
      bool lines_ok = true;
      r.for_each([&](const eval::EventView& re) {
        lines_ok = lines_ok && testutil::record_line(re) == ref_lines[at];
        ++at;
        return lines_ok;
      });
      ASSERT_TRUE(lines_ok) << "cut=" << cut
          << ": recovered event " << at - 1 << " diverges from the reference";
      ASSERT_EQ(at, sealed_events + k) << "cut=" << cut;
      if (k != prev_events) {
        // A new section became durable: full directory recovery, and a
        // replay of the recovered base stream must reproduce exactly the
        // prefix's tables.
        ++boundaries;
        SegmentStore store(dir, SegmentStoreOptions{});
        ASSERT_EQ(store.events(), sealed_events + k) << "cut=" << cut;
        eval::Engine rec(s.program);
        backtest::replay_base_stream(store, rec);
        EXPECT_EQ(testutil::table_multisets(rec),
                  tables_at_prefix(s, base, sealed_events + k))
            << "cut=" << cut;
      }
      prev_events = k;
    }
    EXPECT_GT(boundaries, 1u) << "sweep never crossed a section boundary";
    EXPECT_EQ(sealed_events + prev_events, ref_lines.size())
        << "the untruncated file must recover everything";
  }
}

TEST(SegmentStore, RecoveryContinuationMatchesUninterruptedRun) {
  const scenario::Scenario s = scenario::all_scenarios().front();
  const std::vector<eval::Tuple> trace = scenario::engine_trace(s, 300);
  const size_t split = trace.size() / 2;
  const std::span<const eval::Tuple> first(trace.data(), split);
  const std::span<const eval::Tuple> rest(trace.data() + split,
                                          trace.size() - split);

  // Reference: one uninterrupted engine over the whole trace.
  eval::Engine ref(s.program);
  ref.insert_batch(trace);

  // Crashing run: first half, fully compacted into segments, process dies.
  const std::string dir = fresh_dir("continue");
  eval::EngineOptions opt;
  opt.segment_dir = dir;
  {
    eval::Engine e(s.program, opt);
    run_with_sections(e, std::vector<eval::Tuple>(first.begin(), first.end()),
                      48);
  }

  // Recovery: recover the store, replay it into a fresh engine, attach it
  // as the spill (adopting the already-durable prefix), keep going.
  SegmentStore store(dir, SegmentStoreOptions{});
  ASSERT_GT(store.recovered_events(), 0u);
  eval::Engine cont(s.program);
  backtest::replay_base_stream(store, cont);
  ASSERT_EQ(cont.log().size(), store.events())
      << "replay must regenerate exactly the durable event range";
  cont.log().set_spill(&store);
  EXPECT_EQ(cont.log().base_id(), store.events())
      << "set_spill must adopt the durable prefix";
  EXPECT_EQ(cont.log().live_size(), 0u);
  cont.insert_batch(rest);
  cont.log().compact(0);

  EXPECT_EQ(testutil::table_multisets(cont), testutil::table_multisets(ref));
  EXPECT_EQ(cont.log().size(), ref.log().size());
  EXPECT_EQ(testutil::event_sequence_hash(cont.log()),
            testutil::event_sequence_hash(ref.log()));
  // The continued store holds the full history, standalone-decodable.
  EXPECT_EQ(store_lines(store), log_lines(ref.log()));
}

// --- cause-arena rebases ------------------------------------------------

// The 32-byte Event stores its cause run as an arena-relative u32 offset;
// every compaction drops the dead arena prefix and rebases the live
// suffix's offsets back toward 0. Compact 40 times, each a rebase, and
// the whole history — rebased live suffix plus spilled segments — must
// still decode byte-identically to an uncompacted twin, cause lists
// included.
TEST(SegmentStore, RepeatedRebaseRoundTrip) {
  const std::string dir = fresh_dir("rebase_round_trip");
  SegmentStore store(dir, SegmentStoreOptions{});

  eval::EventLog ref;      // never compacted
  eval::EventLog spilled;  // identical appends, sections spill to the store
  spilled.set_spill(&store);

  // 40 rounds x one rebase per compact; every event past the first few
  // has causes reaching back into already-compacted ids.
  constexpr size_t kRounds = 40;
  constexpr size_t kPerRound = 6;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t k = 0; k < kPerRound; ++k) {
      const auto n = static_cast<eval::EventId>(ref.size());
      std::vector<eval::EventId> causes;
      if (n >= 1) causes.push_back(n - 1);
      if (n >= 4) causes.push_back(n - 4);  // reaches into compacted ids
      const eval::Tuple tup{"T", {Value(1), Value(static_cast<int64_t>(n))}};
      const auto kind = k % 3 == 2 ? eval::EventKind::Derive
                                   : eval::EventKind::Insert;
      const bool derive = kind == eval::EventKind::Derive;
      const std::vector<eval::EventId> used =
          derive ? causes : std::vector<eval::EventId>{};
      const std::string rule = derive ? "rw" : std::string{};
      ref.append(kind, Value(1), tup, eval::TagMask{n % 4}, used, rule);
      spilled.append(kind, Value(1), tup, eval::TagMask{n % 4}, used, rule);
    }
    ASSERT_EQ(spilled.compact(3), kPerRound - (round == 0 ? 3 : 0))
        << "round " << round;
    if (round % 8 == 7) {
      // Decode through the spilled prefix + rebased live suffix mid-run,
      // not only after the final rebase.
      EXPECT_EQ(log_lines(spilled), log_lines(ref)) << "round " << round;
    }
  }
  ASSERT_EQ(spilled.base_id(), kRounds * kPerRound - 3);
  const std::vector<std::string> want = log_lines(ref);
  EXPECT_EQ(log_lines(spilled), want);

  // Seal the rest into the store: the standalone segment decoder (fresh
  // process, no EventLog) walks the identical sequence.
  spilled.compact(0);
  store.flush(false);
  EXPECT_EQ(store_lines(store), want);
  SegmentStore reloaded(dir, SegmentStoreOptions{});
  EXPECT_EQ(reloaded.recovered_events(), want.size());
  EXPECT_EQ(store_lines(reloaded), want);
}

// --- store mechanics ----------------------------------------------------

eval::Engine make_toy(const std::string& dir, FsyncPolicy fsync,
                      size_t rotate, size_t group_buffer = 256u << 10) {
  eval::EngineOptions opt;
  opt.segment_dir = dir;
  opt.segment_store.fsync = fsync;
  opt.segment_store.rotate_bytes = rotate;
  opt.segment_store.group_buffer_bytes = group_buffer;
  return eval::Engine(ndlog::parse_program("table T/2.\n"), opt);
}

TEST(SegmentStore, RotatesAtSectionBoundariesOnly) {
  const std::string dir = fresh_dir("rotate");
  eval::Engine e = make_toy(dir, FsyncPolicy::kOnRotate, 2 << 10);
  for (int i = 0; i < 400; ++i) {
    e.insert(eval::Tuple{"T", {Value(i), Value(i * 2)}});
    if (i % 50 == 49) e.log().compact(0);
  }
  ASSERT_GT(e.segments()->segment_count(), 1u);
  e.segments()->flush(false);
  // Every segment but the newest is sealed past none of the rotation
  // threshold by more than one section, and each decodes standalone with
  // a contiguous id range.
  size_t total = 0;
  for (size_t i = 0; i < e.segments()->segment_count(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%06zu.mpseg", i);
    SegmentReader r(dir + "/" + name);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_EQ(r.first_id(), total) << name;
    EXPECT_EQ(r.valid_bytes(), r.file_bytes()) << name;
    total += r.events();
  }
  EXPECT_EQ(total, e.log().base_id());
}

TEST(SegmentStore, GroupCommitBuffersUntilThresholdOrFsyncPolicy) {
  // kNever + huge buffer: sections stay in RAM until an explicit flush.
  const std::string buffered_dir = fresh_dir("buffered");
  {
    eval::Engine e = make_toy(buffered_dir, FsyncPolicy::kNever, 4u << 20,
                              4u << 20);
    for (int i = 0; i < 50; ++i) e.insert(eval::Tuple{"T", {Value(i), Value(i)}});
    e.log().compact(0);
    const size_t queued = e.segments()->bytes();
    ASSERT_GT(queued, 0u);
    EXPECT_LT(fs::file_size(buffered_dir + "/seg-000000.mpseg"), queued)
        << "group commit must be buffering, not writing through";
    e.segments()->flush(false);
    EXPECT_EQ(fs::file_size(buffered_dir + "/seg-000000.mpseg"), queued);
  }
  // kOnAppend: every section is on disk the moment append_section returns.
  const std::string synced_dir = fresh_dir("synced");
  eval::Engine e = make_toy(synced_dir, FsyncPolicy::kOnAppend, 4u << 20);
  for (int i = 0; i < 50; ++i) e.insert(eval::Tuple{"T", {Value(i), Value(i)}});
  e.log().compact(0);
  EXPECT_EQ(fs::file_size(synced_dir + "/seg-000000.mpseg"),
            e.segments()->bytes());
}

TEST(SegmentStore, RecoveryDropsUnreachableLaterSegments) {
  const std::string dir = fresh_dir("gap");
  {
    eval::Engine e = make_toy(dir, FsyncPolicy::kNever, 1 << 10);
    for (int i = 0; i < 300; ++i) {
      e.insert(eval::Tuple{"T", {Value(i), Value(i)}});
      if (i % 30 == 29) e.log().compact(0);
    }
    ASSERT_GT(e.segments()->segment_count(), 2u);
  }
  // Corrupt a middle segment's header: everything after it is an id gap
  // and must be dropped, not replayed out of order.
  {
    std::ofstream out(dir + "/seg-000001.mpseg",
                      std::ios::binary | std::ios::in);
    out.seekp(0);
    out.write("XXXXXX", 6);
  }
  SegmentStore store(dir, SegmentStoreOptions{});
  SegmentReader first(dir + "/seg-000000.mpseg");
  EXPECT_EQ(store.events(), first.events());
  EXPECT_EQ(store.segment_count(), 1u);
  EXPECT_GT(store.dropped_bytes(), 0u);
  EXPECT_FALSE(fs::exists(dir + "/seg-000001.mpseg"));
}

TEST(SegmentStore, UnusableDirectoryLatchesFailedAtAttach) {
  // A regular file squatting on the segment-dir path (the portable stand-
  // in for an unwritable parent — chmod is a no-op for root, which CI
  // runs as): create_directories cannot win, and the store must come up
  // as an inert failed() object instead of crashing or asserting.
  const std::string parent = fresh_dir("squat");
  const std::string path = parent + "/segs";
  { std::ofstream(path) << "not a directory"; }

  SegmentStore store(path, SegmentStoreOptions{});  // kDegrade default
  EXPECT_TRUE(store.failed());
  EXPECT_FALSE(store.status().ok());
  EXPECT_EQ(store.events(), 0u);
  // Inert but safe to poke: appends are rejected, replay yields nothing,
  // flush is a no-op.
  std::vector<uint8_t> none;
  EXPECT_FALSE(store.append_section(0, 0, none, none));
  size_t replayed = 0;
  store.replay_raw([&](const eval::EventView&) {
    ++replayed;
    return true;
  });
  EXPECT_EQ(replayed, 0u);
  store.flush(true);

  // kFailStop: the same condition surfaces as IoError from the ctor.
  SegmentStoreOptions strict;
  strict.on_error = ErrorPolicy::kFailStop;
  EXPECT_THROW(SegmentStore(path, strict), IoError);

  // An engine handed the unusable path has no checkpoint home: compact()
  // moves nothing and the full event sequence stays live.
  eval::EngineOptions opt;
  opt.segment_dir = path;
  eval::Engine e(ndlog::parse_program("table T/2.\n"), opt);
  ASSERT_NE(e.segments(), nullptr);
  EXPECT_TRUE(e.segments()->failed());
  for (int i = 0; i < 20; ++i) e.insert(eval::Tuple{"T", {Value(i), Value(i)}});
  const size_t logged = e.log().size();
  ASSERT_GE(logged, 20u);
  EXPECT_EQ(e.log().compact(0), 0u);
  EXPECT_EQ(e.log().size(), logged);
  EXPECT_EQ(e.log().live_size(), logged);
  size_t seen = 0;
  e.log().for_each_event([&](const eval::EventView&) { ++seen; });
  EXPECT_EQ(seen, logged);
}

TEST(SegmentStore, SegmentDeletedUnderOpenReaderStaysReadable) {
  const std::string dir = fresh_dir("unlinked");
  {
    eval::Engine e = make_toy(dir, FsyncPolicy::kNever, 1 << 10);
    for (int i = 0; i < 300; ++i) {
      e.insert(eval::Tuple{"T", {Value(i), Value(i)}});
      if (i % 30 == 29) e.log().compact(0);
    }
    ASSERT_GT(e.segments()->segment_count(), 2u);
  }
  SegmentStore store(dir, SegmentStoreOptions{});
  const size_t total = store.events();
  SegmentReader first(dir + "/seg-000000.mpseg");
  ASSERT_TRUE(first.ok());
  const size_t first_events = first.events();
  ASSERT_LT(first_events, total);

  // Open a reader on the second segment, then delete its file. The mmap
  // keeps the pages alive (POSIX unlink semantics), so the open reader
  // decodes in full.
  SegmentReader open_reader(dir + "/seg-000001.mpseg");
  ASSERT_TRUE(open_reader.ok());
  fs::remove(dir + "/seg-000001.mpseg");
  size_t via_open = 0;
  open_reader.for_each([&](const eval::EventView&) {
    ++via_open;
    return true;
  });
  EXPECT_EQ(via_open, open_reader.events());

  // The store, on its next replay, must notice the hole and stop at the
  // contiguous prefix — never skip over it into later segments.
  size_t replayed = 0;
  eval::EventId last = 0;
  store.replay_raw([&](const eval::EventView& re) {
    last = re.id;
    ++replayed;
    return true;
  });
  EXPECT_EQ(replayed, first_events);
  if (replayed > 0) {
    EXPECT_EQ(last, first_events - 1);
  }
}

TEST(SegmentStore, ZeroLengthSegmentFileIsDroppedCleanly) {
  const std::string dir = fresh_dir("zerolen");
  {
    eval::Engine e = make_toy(dir, FsyncPolicy::kNever, 1 << 10);
    for (int i = 0; i < 120; ++i) {
      e.insert(eval::Tuple{"T", {Value(i), Value(i)}});
      if (i % 30 == 29) e.log().compact(0);
    }
    ASSERT_GT(e.segments()->segment_count(), 1u);
  }
  // A crash between open_new_segment's open() and the header flush leaves
  // a zero-length file at the next sequence number.
  const size_t durable = SegmentStore(dir, SegmentStoreOptions{}).events();
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06zu.mpseg",
                SegmentStore(dir, SegmentStoreOptions{}).segment_count());
  { std::ofstream(dir + "/" + name, std::ios::binary); }
  ASSERT_EQ(fs::file_size(dir + "/" + name), 0u);

  SegmentStore store(dir, SegmentStoreOptions{});
  EXPECT_FALSE(store.failed());
  EXPECT_EQ(store.events(), durable);
  EXPECT_FALSE(fs::exists(dir + "/" + name))
      << "recovery must remove the stillborn segment";
  // And the store resumes appending exactly where the prefix ends: the
  // continuation run equals an uninterrupted one (id continuity).
  size_t replayed = 0;
  store.replay_raw([&](const eval::EventView&) {
    ++replayed;
    return true;
  });
  EXPECT_EQ(replayed, durable);
}

// --- hostile segment input ----------------------------------------------

namespace ckpt = eval::ckpt;

// Serialized entry with the given header fields followed by `payload`
// verbatim; payload_len is what the header claims, not payload.size().
std::vector<uint8_t> entry_bytes(uint16_t nvals, uint8_t ncauses,
                                 uint32_t payload_len,
                                 const std::vector<uint8_t>& payload,
                                 uint16_t table_id = 0, uint8_t kind = 0) {
  std::vector<uint8_t> out;
  ckpt::put_u64(out, eval::kAllTags);
  out.push_back(kind);
  out.push_back(ncauses);
  ckpt::put_u16(out, table_id);
  ckpt::put_u16(out, ckpt::kNoRuleSerialized);
  ckpt::put_u16(out, nvals);
  ckpt::put_u16(out, 0);  // node id
  ckpt::put_u32(out, payload_len);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<uint8_t> int_value(int64_t v) {
  std::vector<uint8_t> out;
  ckpt::put_value(out, Value(v));
  return out;
}

// A well-formed one-value entry.
std::vector<uint8_t> good_entry(int64_t v) {
  return entry_bytes(1, 0, 9, int_value(v));
}

// Names for table 0 ("T") and node 0.
std::vector<uint8_t> good_names() {
  std::vector<uint8_t> out;
  out.push_back(ckpt::kNameTable);
  ckpt::put_u16(out, 0);
  ckpt::put_u16(out, 1);
  out.push_back('T');
  out.push_back(ckpt::kNameNode);
  ckpt::put_u16(out, 0);
  ckpt::put_value(out, Value(1));
  return out;
}

std::vector<uint8_t> concat(std::vector<uint8_t> a,
                            const std::vector<uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// A segment file image built chunk by chunk with correct framing and
// CRCs (append_chunk_header), so only the decoder's own bounds checks
// stand between a malformed payload and an out-of-bounds read.
struct SegmentImage {
  std::vector<uint8_t> bytes{std::begin(kFileMagic), std::end(kFileMagic)};
  uint64_t next_id = 0;
  SegmentImage() {
    ckpt::put_u16(bytes, kFormatVersion);
    ckpt::put_u64(bytes, 0);
  }
  void chunk(uint8_t kind, uint32_t count, const std::vector<uint8_t>& payload) {
    append_chunk_header(bytes, kind, next_id, count, payload.data(),
                        static_cast<uint32_t>(payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    if (kind == kChunkEntries) next_id += count;
  }
  void section(const std::vector<uint8_t>& names, uint32_t count,
               const std::vector<uint8_t>& entries) {
    chunk(kChunkNames, 0, names);
    chunk(kChunkEntries, count, entries);
  }
};

TEST(SegmentReader, HostileSectionsWithValidCrcsEndThePrefixCleanly) {
  struct Shape {
    const char* name;
    std::vector<uint8_t> names;
    uint32_t count;
    std::vector<uint8_t> entries;
  };
  std::vector<uint8_t> long_string = {1};  // tag str, len 300, 4 bytes
  ckpt::put_u16(long_string, 300);
  long_string.insert(long_string.end(), {'a', 'b', 'c', 'd'});
  std::vector<uint8_t> name_past_end = {ckpt::kNameTable, 0, 0};
  ckpt::put_u16(name_past_end, 50);
  name_past_end.push_back('T');
  std::vector<uint8_t> node_past_end = {ckpt::kNameNode, 0, 0, 1};
  ckpt::put_u16(node_past_end, 100);
  const std::vector<uint8_t> names = good_names();
  const std::vector<Shape> shapes = {
      {"row values past the entry payload", names, 1,
       entry_bytes(1000, 0, 9, int_value(7))},
      {"cause ids past the entry payload", names, 1,
       entry_bytes(1, 200, 9, int_value(7))},
      {"entry header past the chunk end", names, 1,
       std::vector<uint8_t>(10, 0)},
      {"entry payload_len past the chunk end", names, 1,
       entry_bytes(1, 0, 500, int_value(7))},
      {"string value past the entry payload", names, 1,
       entry_bytes(1, 0, static_cast<uint32_t>(long_string.size()),
                   long_string)},
      {"unknown value tag", names, 1, entry_bytes(1, 0, 9, {7, 0, 0, 0, 0,
                                                           0, 0, 0, 0})},
      {"values and causes short of payload_len", names, 1,
       entry_bytes(1, 0, 17, concat(int_value(7), std::vector<uint8_t>(8)))},
      {"trailing bytes after the last entry", names, 1,
       concat(good_entry(7), {0, 0, 0, 0, 0})},
      {"count beyond the entries present", names, 3, good_entry(7)},
      {"unknown table id", names, 1, entry_bytes(1, 0, 9, int_value(7), 5)},
      {"unknown event kind", names, 1,
       entry_bytes(1, 0, 9, int_value(7), 0, 200)},
      {"names record cut after its kind", concat(names, {ckpt::kNameRule}), 1,
       good_entry(7)},
      {"name bytes past the chunk end", concat(names, name_past_end), 1,
       good_entry(7)},
      {"node value past the chunk end", concat(names, node_past_end), 1,
       good_entry(7)},
      {"unknown name record kind", concat(names, {9, 0, 0, 0, 0}), 1,
       good_entry(7)},
  };
  const std::string dir = fresh_dir("hostile");
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& shape = shapes[i];
    SCOPED_TRACE(shape.name);
    // A good two-event section, the malformed one, then another good
    // section that must not count: the valid prefix ends at the first.
    SegmentImage img;
    img.section(names, 2, concat(good_entry(1), good_entry(2)));
    const size_t good_end = img.bytes.size();
    img.section(shape.names, shape.count, shape.entries);
    img.section(names, 1, good_entry(3));

    auto expect_clean_stop = [&](const SegmentReader& r) {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.events(), 2u);
      EXPECT_EQ(r.valid_bytes(), good_end);
      std::vector<int64_t> seen;
      const size_t visited = r.for_each([&](const eval::EventView& re) {
        EXPECT_EQ(re.table, "T");
        seen.push_back((*re.row)[0].as_int());
        return true;
      });
      EXPECT_EQ(visited, r.events());
      EXPECT_EQ(seen, (std::vector<int64_t>{1, 2}));
    };
    // Exactly-sized heap copy, so a read past the image is an ASan
    // heap-buffer-overflow rather than a read of spare capacity.
    const std::vector<uint8_t> mem(img.bytes.begin(), img.bytes.end());
    expect_clean_stop(SegmentReader(mem.data(), mem.size(), 0));

    // The same bytes as a file: the mmap'd reader stops at the same
    // point, and recovery truncates the file there.
    const std::string path = dir + "/seg-" + std::to_string(i) + ".mpseg";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(img.bytes.data()),
                static_cast<std::streamsize>(img.bytes.size()));
    }
    expect_clean_stop(SegmentReader(path));
  }
}


// --- seeded corruption sweep ----------------------------------------------

// Where one part of a segment image lies: the file header, a chunk header,
// or one entry or name record inside a chunk payload (`chunk` is the
// offset of its chunk's header).
struct Region {
  enum Kind { kFileHeader, kChunkHeader, kEntry, kNameRecord } kind;
  size_t begin;
  size_t end;
  size_t chunk;
};

// Maps every part of a well-formed segment image.
std::vector<Region> map_regions(const std::vector<uint8_t>& img) {
  std::vector<Region> out = {{Region::kFileHeader, 0, kFileHeaderBytes, 0}};
  size_t pos = kFileHeaderBytes;
  while (pos + kChunkHeaderBytes <= img.size()) {
    const uint8_t* h = img.data() + pos;
    const uint8_t kind = h[4];
    const size_t len = ckpt::get_u32(h + 20);
    out.push_back({Region::kChunkHeader, pos, pos + kChunkHeaderBytes, pos});
    const uint8_t* p = h + kChunkHeaderBytes;
    const uint8_t* end = p + len;
    while (p < end) {
      const uint8_t* at = p;
      if (kind == kChunkEntries) {
        p += ckpt::kHeaderBytes + ckpt::get_u32(p + ckpt::kPayloadLenOffset);
      } else if (p[0] == ckpt::kNameNode) {
        p += 3;
        EXPECT_TRUE(ckpt::get_value(p, end, nullptr));
      } else {
        p += 5 + ckpt::get_u16(p + 3);
      }
      out.push_back({kind == kChunkEntries ? Region::kEntry
                                           : Region::kNameRecord,
                     static_cast<size_t>(at - img.data()),
                     static_cast<size_t>(p - img.data()), pos});
    }
    pos += kChunkHeaderBytes + len;
  }
  EXPECT_EQ(pos, img.size());
  return out;
}

// Writes the low `bytes` bytes of `v` little-endian at `at`.
void poke(std::vector<uint8_t>& img, size_t at, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    img[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Recomputes the CRCs of the chunk whose header is at `chunk`: the
// payload CRC when its claimed payload fits the image, then the header
// CRC, so only the decoder's own checks can reject the chunk.
void reframe(std::vector<uint8_t>& img, size_t chunk) {
  const uint8_t* h = img.data() + chunk;
  const uint32_t len = ckpt::get_u32(h + 20);
  if (img.size() - chunk - kChunkHeaderBytes >= len) {
    poke(img, chunk + 24, crc32(h + kChunkHeaderBytes, len), 4);
  }
  poke(img, chunk + 28, crc32(h, kChunkHeaderBytes - 4), 4);
}

// A length or count read as `old`, rewritten: to zero, one, off by one,
// doubled, all ones, or random.
uint64_t bent(Rng& rng, uint64_t old, int bytes) {
  const uint64_t ones = bytes == 8 ? ~uint64_t{0}
                                   : (uint64_t{1} << (8 * bytes)) - 1;
  switch (rng.below(7)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return (old - 1) & ones;
    case 3: return (old + 1) & ones;
    case 4: return (old * 2) & ones;
    case 5: return ones;
    default: return rng.next() & ones;
  }
}

// One seeded corruption of `img` inside `r`: a flipped bit (left to the
// CRCs or, half the time, reframed past them), or a rewritten length or
// count field with recomputed CRCs. Returns the first byte it changed.
size_t corrupt(std::vector<uint8_t>& img, const Region& r, Rng& rng) {
  if (rng.chance(0.5)) {
    const size_t at = r.begin + rng.below(r.end - r.begin);
    img[at] ^= static_cast<uint8_t>(1u << rng.below(8));
    if (r.kind != Region::kFileHeader && rng.chance(0.5)) reframe(img, r.chunk);
    return at;
  }
  size_t at = r.begin;
  int bytes = 0;
  switch (r.kind) {
    case Region::kFileHeader:  // the version or the first event id
      std::tie(at, bytes) = rng.chance(0.5) ? std::pair{r.begin + 6, 2}
                                            : std::pair{r.begin + 8, 8};
      break;
    case Region::kChunkHeader:  // count or payload_len
      std::tie(at, bytes) = rng.chance(0.5) ? std::pair{r.begin + 16, 4}
                                            : std::pair{r.begin + 20, 4};
      break;
    case Region::kEntry: {  // ncauses, nvals or payload_len
      const uint64_t pick = rng.below(3);
      std::tie(at, bytes) =
          pick == 0   ? std::pair{r.begin + ckpt::kNCausesOffset, 1}
          : pick == 1 ? std::pair{r.begin + ckpt::kNValsOffset, 2}
                      : std::pair{r.begin + ckpt::kPayloadLenOffset, 4};
      break;
    }
    case Region::kNameRecord:  // the id, or a name's or value's length
      if (rng.chance(0.5)) {
        std::tie(at, bytes) = std::pair{r.begin + 1, 2};
      } else if (img[r.begin] != ckpt::kNameNode) {
        std::tie(at, bytes) = std::pair{r.begin + 3, 2};
      } else {
        // A string node value's length follows its tag; an int's tag.
        std::tie(at, bytes) = img[r.begin + 3] == 1
                                  ? std::pair{r.begin + 4, 2}
                                  : std::pair{r.begin + 3, 1};
      }
      break;
  }
  uint64_t old = 0;
  for (int i = 0; i < bytes; ++i) {
    old |= uint64_t{img[at + static_cast<size_t>(i)]} << (8 * i);
  }
  poke(img, at, bent(rng, old, bytes), bytes);
  if (r.kind != Region::kFileHeader) reframe(img, r.chunk);
  return at;
}

// Seeded corruptions of a real multi-section segment (Q1's trace): flipped
// bits, and length and count fields rewritten under recomputed CRCs, in
// the file header, chunk headers, entries and name records. Each case must
// end in a clean rejection or a truncated valid prefix: the sections
// wholly before the first changed byte decode as written, for_each visits
// exactly events(), and recovery keeps exactly the reader's prefix with an
// OK status. CHECK_ASAN=1 runs it under ASan, where an out-of-bounds read
// fails the case.
TEST(SegmentReader, SeededCorruptionSweepEndsCleanly) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  const std::string src = fresh_dir("corrupt_src");
  {
    eval::EngineOptions opt;
    opt.segment_dir = src;
    eval::Engine e(s.program, opt);
    const std::vector<eval::Tuple> trace = scenario::engine_trace(s, 240);
    run_with_sections(e, trace, trace.size() / 6 + 1);
  }
  std::vector<uint8_t> image;
  {
    std::ifstream in(src + "/seg-000000.mpseg", std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The written sections: where each ends, and its events' lines.
  const SegmentReader whole(image.data(), image.size(), 0);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole.valid_bytes(), image.size());
  std::vector<std::string> want;
  whole.for_each([&](const eval::EventView& ev) {
    want.push_back(testutil::record_line(ev));
    return true;
  });
  std::vector<Region> by_kind[4];
  std::vector<std::pair<size_t, size_t>> section_ends;  // (end, events)
  size_t events = 0;
  for (const Region& r : map_regions(image)) {
    by_kind[r.kind].push_back(r);
    if (r.kind != Region::kChunkHeader || image[r.begin + 4] != kChunkEntries)
      continue;
    events += ckpt::get_u32(image.data() + r.begin + 16);
    section_ends.emplace_back(
        r.end + ckpt::get_u32(image.data() + r.begin + 20), events);
  }
  ASSERT_GE(section_ends.size(), 4u);
  ASSERT_EQ(section_ends.back().second, want.size());

  constexpr uint64_t kCases = 600;
  size_t kinds[4] = {}, rejected = 0, cut = 0;
  const std::string dir = fresh_dir("corrupt");
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    Rng rng(seed);
    // A kind first, so the one file header is swept as often as the many
    // entries.
    const auto& of_kind = by_kind[rng.below(4)];
    const Region& r = of_kind[rng.below(of_kind.size())];
    ++kinds[r.kind];
    std::vector<uint8_t> img = image;
    const size_t changed = corrupt(img, r, rng);
    const std::string where = "seed " + std::to_string(seed);
    size_t intact = 0;  // events of the sections wholly before `changed`
    for (const auto& [end, events] : section_ends) {
      if (end <= changed) intact = events;
    }

    // Exactly-sized heap copy: a read past it is an ASan error.
    const std::vector<uint8_t> mem(img.begin(), img.end());
    const SegmentReader reader(mem.data(), mem.size(), 0);
    std::vector<std::string> got;
    const size_t visited = reader.for_each([&](const eval::EventView& ev) {
      got.push_back(testutil::record_line(ev));
      return true;
    });
    ASSERT_EQ(visited, reader.events()) << where;
    ASSERT_LE(reader.valid_bytes(), img.size()) << where;
    if (!reader.ok()) {
      ASSERT_EQ(reader.events(), 0u) << where;
      ASSERT_EQ(reader.valid_bytes(), 0u) << where;
      ++rejected;
    } else {
      ASSERT_GE(got.size(), intact) << where;
      for (size_t i = 0; i < intact; ++i) ASSERT_EQ(got[i], want[i]) << where;
      cut += reader.valid_bytes() < img.size();
    }

    // The same bytes as the store's only segment: recovery keeps exactly
    // the reader's prefix.
    const std::string seg = dir + "/seg-000000.mpseg";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      std::ofstream out(seg, std::ios::binary);
      out.write(reinterpret_cast<const char*>(img.data()),
                static_cast<std::streamsize>(img.size()));
    }
    SegmentStore store(dir);
    ASSERT_TRUE(store.status().ok()) << where << ": " << store.status().message();
    const size_t kept =
        reader.ok() && reader.first_id() == 0 ? reader.events() : 0;
    ASSERT_EQ(store.recovered_events(), kept) << where;
    const std::vector<std::string> replayed = testutil::store_lines(store);
    ASSERT_EQ(replayed.size(), kept) << where;
    for (size_t i = 0; i < kept; ++i) ASSERT_EQ(replayed[i], got[i]) << where;
  }
  // Every region kind was hit, and the sweep saw rejections and cuts.
  for (const size_t n : kinds) EXPECT_GT(n, 0u);
  EXPECT_GT(rejected + cut, kCases / 4);
}

}  // namespace
}  // namespace mp::storage
