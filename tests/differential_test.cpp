// Differential equivalence harness: every scenario's controller program is
// driven at the engine level both tuple-at-a-time and through
// Engine::insert_batch at batch sizes {1, 7, 64, whole-trace}. The batched
// runs must reach the identical fixpoint: same final table states on every
// node, same event-log length, same derivation count and same rule-firing
// count. A log spilled to segment files must replay
// (backtest::replay_base_stream) into the identical engine, on which the
// repair generator's output is byte-identical to the directly-run engine's.
// The tuple stream is the scenario's real workload (config tuples + the
// PacketIn encoding of every recorded injection), so this exercises each
// scenario's actual rules, joins and cross-node derivations — the safety
// net that later batching changes are tested against.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "backtest/replay.h"
#include "e2ebench/workloads.h"
#include "obs/obs.h"
#include "storage/segment_store.h"
#include "scenarios/scenario.h"
#include "test_util.h"

namespace mp::scenario {
namespace {

using testutil::event_sequence_hash;
using testutil::table_multisets;

struct EngineSnapshot {
  std::map<std::string, std::multiset<std::string>> tables;
  size_t log_events = 0;
  size_t derivations = 0;
  size_t firings = 0;
  // FNV-1a over the (kind, tuple) event sequence: batched evaluation keeps
  // the per-tuple order, so even the exact log sequence must agree.
  uint64_t event_sequence_hash = 1469598103934665603ull;
};

void expect_equal(const EngineSnapshot& got, const EngineSnapshot& want,
                  const std::string& what) {
  EXPECT_EQ(got.firings, want.firings) << what;
  EXPECT_EQ(got.log_events, want.log_events) << what;
  EXPECT_EQ(got.derivations, want.derivations) << what;
  EXPECT_EQ(got.event_sequence_hash, want.event_sequence_hash) << what;
  ASSERT_EQ(got.tables.size(), want.tables.size()) << what;
  for (const auto& [table, rows] : want.tables) {
    auto it = got.tables.find(table);
    ASSERT_NE(it, got.tables.end()) << what << " table " << table;
    EXPECT_EQ(it->second, rows) << what << " table " << table;
  }
}

EngineSnapshot snapshot(const eval::Engine& engine) {
  EngineSnapshot snap;
  snap.tables = table_multisets(engine);
  snap.log_events = engine.log().size();
  snap.derivations = engine.log().derivations().size();
  snap.firings = engine.rule_firings();
  snap.event_sequence_hash = event_sequence_hash(engine.log());
  return snap;
}

using testutil::explore_all;

// batch_size 0 = tuple-at-a-time baseline.
EngineSnapshot run_trace(const Scenario& s,
                         const std::vector<eval::Tuple>& trace,
                         size_t batch_size, eval::EngineOptions opt = {}) {
  eval::Engine engine(s.program, opt);
  if (batch_size == 0) {
    for (const eval::Tuple& t : trace) engine.insert(t);
  } else {
    for (size_t i = 0; i < trace.size(); i += batch_size) {
      const size_t n = std::min(batch_size, trace.size() - i);
      engine.insert_batch(std::span<const eval::Tuple>(trace.data() + i, n));
    }
  }
  return snapshot(engine);
}

TEST(Differential, AllScenariosBatchedMatchesSequential) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    const std::vector<eval::Tuple> trace = engine_trace(s, 4000);
    ASSERT_GT(trace.size(), s.config_tuples.size());
    const EngineSnapshot baseline = run_trace(s, trace, 0);
    EXPECT_GT(baseline.firings, 0u) << "trace must exercise the rules";
    for (size_t batch_size :
         {size_t{1}, size_t{7}, size_t{64}, trace.size()}) {
      expect_equal(run_trace(s, trace, batch_size), baseline,
                   s.id + " batch_size=" + std::to_string(batch_size));
    }
  }
}

// Selection pushdown (join-time evaluation of bound selections) prunes
// candidate rows earlier but must not change anything observable: same
// fixpoint, same exact event sequence, same derivations, same repair
// output — against finish-only evaluation (pushdown_selections = false,
// the pre-pushdown engine).
TEST(Differential, SelectionPushdownMatchesFinishOnlyEvaluation) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    const std::vector<eval::Tuple> trace = engine_trace(s, 2500);

    eval::EngineOptions finish_only;
    finish_only.pushdown_selections = false;
    eval::Engine pushed(s.program);
    eval::Engine finish(s.program, finish_only);
    for (const eval::Tuple& t : trace) {
      pushed.insert(t);
      finish.insert(t);
    }
    const EngineSnapshot want = snapshot(pushed);
    expect_equal(want, snapshot(finish), s.id + " pushdown");
    EXPECT_EQ(explore_all(s, pushed), explore_all(s, finish))
        << "repair exploration must not observe the evaluation order";
    // Finish-only evaluation through the batched path agrees too
    // (pushdown x batching compose).
    expect_equal(run_trace(s, trace, 64, finish_only), want,
                 s.id + " pushdown-off batched");
  }
}

// The five scenarios plus Fig 10's Q1 padded to 900 lines, where ~450
// operational-zone rules trigger on PacketIn.
std::vector<Scenario> scenarios_with_padded_q1() {
  std::vector<Scenario> all = all_scenarios();
  Scenario padded = q1_copy_paste({});
  e2e::pad_program(padded, 900);
  padded.id = "Q1/900";
  all.push_back(std::move(padded));
  return all;
}

// Trigger plans (rule, body atom) that an appearance of `table` tries.
size_t plans_on(const ndlog::Program& program, const std::string& table) {
  size_t n = 0;
  for (const ndlog::Rule& rule : program.rules) {
    for (const ndlog::Atom& atom : rule.body) n += atom.table == table;
  }
  return n;
}

// use_indexes = false is the reference mode: full scans for every join
// step and a visit to every trigger plan (no constant-keyed dispatch).
// Both must reach the same fixpoint with the same firings, log length
// and derivations.
TEST(Differential, IndexesOffMatchesDefaultOnAllScenarios) {
  for (const Scenario& s : scenarios_with_padded_q1()) {
    SCOPED_TRACE("scenario " + s.id);
    const std::vector<eval::Tuple> trace = engine_trace(s, 2500);
    eval::EngineOptions ref_opt;
    ref_opt.use_indexes = false;
    eval::Engine indexed(s.program);
    eval::Engine reference(s.program, ref_opt);
    for (const eval::Tuple& t : trace) {
      indexed.insert(t);
      reference.insert(t);
    }
    const EngineSnapshot got = snapshot(indexed);
    const EngineSnapshot want = snapshot(reference);
    EXPECT_GT(want.firings, 0u);
    EXPECT_EQ(got.tables, want.tables);
    EXPECT_EQ(got.firings, want.firings);
    EXPECT_EQ(got.log_events, want.log_events);
    EXPECT_EQ(got.derivations, want.derivations);
    EXPECT_LE(indexed.trigger_attempts(), reference.trigger_attempts());
    // Exact order too: the two modes enumerate join rows in the same
    // order on these traces. A scenario whose multi-match joins came to
    // differ between bucket and scan order would be compared as event
    // multisets instead, as EnginePlan.MultiMatchJoinsAgreeAsMultisets
    // does.
    EXPECT_EQ(got.event_sequence_hash, want.event_sequence_hash);
  }
}

// The dispatch index is what keeps Fig 10's per-PacketIn engine cost flat
// in program size: on Q1 padded to 900 lines, a PacketIn visits no more
// plans than Q1's own PacketIn rules (the ~450 zone rules are keyed on
// switches the campus does not have), while the reference mode visits
// every plan.
TEST(Differential, PaddedProgramVisitsOnlyMatchingTriggerPlans) {
  const Scenario q1 = q1_copy_paste({});
  Scenario padded = q1;
  e2e::pad_program(padded, 900);
  const std::vector<eval::Tuple> trace = engine_trace(padded, 2500);
  size_t packet_ins = 0;
  size_t want_reference = 0;
  for (const eval::Tuple& t : trace) {
    packet_ins += t.table == "PacketIn";
    want_reference += plans_on(padded.program, t.table);
  }
  ASSERT_GT(packet_ins, 1000u);
  const size_t q1_plans = plans_on(q1.program, "PacketIn");
  const size_t all_plans = plans_on(padded.program, "PacketIn");
  EXPECT_EQ(q1_plans, 6u);
  EXPECT_GT(all_plans, 400u);
  // Derived tables (FlowTable, Zone*) trigger nothing, so the trace's own
  // tuples are every appearance that reaches fire_rules.
  for (const ndlog::Rule& rule : padded.program.rules) {
    EXPECT_EQ(plans_on(padded.program, rule.head.table), 0u) << rule.name;
  }

  eval::Engine indexed(padded.program);
  eval::EngineOptions ref_opt;
  ref_opt.use_indexes = false;
  eval::Engine reference(padded.program, ref_opt);
  for (const eval::Tuple& t : trace) {
    indexed.insert(t);
    reference.insert(t);
  }
  EXPECT_EQ(reference.trigger_attempts(), want_reference);
  EXPECT_LT(indexed.trigger_attempts(), packet_ins * (q1_plans + 1));
  EXPECT_EQ(indexed.rule_firings(), reference.rule_firings());
}

// Observability is pure observation: turning the obs switch off
// (obs::set_enabled(false), which silences every publishing site — engine
// counter publication, storage instruments, latency histograms,
// span recording) must leave evaluation byte-identical. Same exact event
// sequence, same tables, same derivations, same repair output, on every
// scenario, through both the tuple-at-a-time and batched entry points.
TEST(Differential, ObsOffMatchesObsOnAllScenarios) {
  struct Restore {
    ~Restore() { obs::set_enabled(true); }
  } restore;
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    const std::vector<eval::Tuple> trace = engine_trace(s, 2500);

    obs::set_enabled(true);
    eval::Engine on(s.program);
    for (const eval::Tuple& t : trace) on.insert(t);
    const EngineSnapshot want = snapshot(on);
    EXPECT_GT(want.firings, 0u);
    const std::vector<std::string> want_repairs = explore_all(s, on);
    const EngineSnapshot want_batched = run_trace(s, trace, 64);

    obs::set_enabled(false);
    eval::Engine off(s.program);
    for (const eval::Tuple& t : trace) off.insert(t);
    expect_equal(snapshot(off), want, s.id + " obs off");
    EXPECT_EQ(explore_all(s, off), want_repairs)
        << "repair output must not observe the metrics switch";
    expect_equal(run_trace(s, trace, 64), want_batched,
                 s.id + " obs off batched");
    obs::set_enabled(true);
  }
}

// Durable-segment round trip row: an auto-compacting run whose
// checkpoint sections spill to segment files (src/storage) must be
// observably identical to the never-compacted run — same fixpoint, same
// full event sequence walked back through the mmap'd segments — and a
// reload from the segment files ALONE (fresh process: recovery scan +
// replay_base_stream over the store, no source EventLog) must rebuild the
// identical snapshot on every scenario, and repair exploration on the
// rebuilt engine must be byte-identical to exploration on an engine that
// ran the trace directly.
TEST(Differential, SegmentReloadMatchesUncompactedRunOnAllScenarios) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    const std::vector<eval::Tuple> trace = engine_trace(s, 1200);

    const EngineSnapshot want = run_trace(s, trace, 64);
    EXPECT_GT(want.firings, 0u);
    // The full history of the same never-compacted run, cause lists
    // included.
    eval::Engine plain(s.program);
    for (size_t i = 0; i < trace.size(); i += 64) {
      const size_t n = std::min<size_t>(64, trace.size() - i);
      plain.insert_batch(std::span<const eval::Tuple>(trace.data() + i, n));
    }
    const std::vector<std::string> want_lines =
        testutil::log_lines(plain.log());

    const std::string dir =
        ::testing::TempDir() + "mp_differential_segments/" + s.id;
    std::filesystem::remove_all(dir);
    eval::EngineOptions seg_opt;
    seg_opt.compact_after_events = 150;
    seg_opt.compact_keep_live = 40;
    seg_opt.segment_dir = dir;
    seg_opt.segment_store.rotate_bytes = 16 << 10;
    {
      eval::Engine engine(s.program, seg_opt);
      for (size_t i = 0; i < trace.size(); i += 64) {
        const size_t n = std::min<size_t>(64, trace.size() - i);
        engine.insert_batch(std::span<const eval::Tuple>(trace.data() + i, n));
      }
      ASSERT_NE(engine.segments(), nullptr);
      EXPECT_GT(engine.log().base_id(), 0u)
          << "auto-compaction never spilled: the row pins nothing";
      expect_equal(snapshot(engine), want, s.id + " spilled");
      EXPECT_EQ(testutil::log_lines(engine.log()), want_lines);
      engine.log().compact(0);  // seal the full history into the store
      EXPECT_EQ(testutil::event_sequence_hash(engine.log()),
                want.event_sequence_hash)
          << "fully-spilled log must still walk the identical sequence";
      EXPECT_EQ(testutil::log_lines(engine.log()), want_lines);
    }

    storage::SegmentStore store(dir);
    EXPECT_EQ(store.recovered_events(), want.log_events);
    EXPECT_EQ(testutil::store_lines(store), want_lines);
    eval::Engine rebuilt(s.program);
    const size_t applied = backtest::replay_base_stream(store, rebuilt);
    EXPECT_GT(applied, 0u);
    expect_equal(snapshot(rebuilt), want, s.id + " segment reload");

    eval::Engine direct(s.program);
    for (const eval::Tuple& t : trace) direct.insert(t);
    const std::vector<std::string> want_repairs = explore_all(s, direct);
    EXPECT_FALSE(want_repairs.empty());
    EXPECT_EQ(explore_all(s, rebuilt), want_repairs);
  }
}

}  // namespace
}  // namespace mp::scenario
