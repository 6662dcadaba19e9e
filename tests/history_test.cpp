// HistoryStore + event-log compaction coverage:
//   - probe vs. linear-scan equivalence (randomized patterns over every
//     scenario's real history, indexed path vs. forced-scan path vs. a
//     hand-rolled filter — same tuples, same order),
//   - checkpoint -> truncate -> replay round trip through the segment
//     store (identical final tables and event-sequence hash, byte
//     accounting in the serialized format within 2x of the paper's
//     ~120 B/entry), compaction without a usable sink moving nothing, and
//     a segment reload into a differently-interned catalog,
//   - repair regression: the repair generator's output (repair sets +
//     costs) is byte-identical whether history lookups hit the secondary indexes or
//     the ordered scan they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "backtest/replay.h"
#include "eval/engine.h"
#include "eval/history.h"
#include "ndlog/parser.h"
#include "scenarios/scenario.h"
#include "sdn/topology.h"
#include "storage/segment.h"
#include "storage/segment_store.h"
#include "test_util.h"
#include "util/rng.h"

namespace mp::eval {
namespace {

std::vector<std::string> probe_result(const HistoryStore& h,
                                      const TuplePattern& pat) {
  std::vector<std::string> out;
  h.probe(pat, [&](TupleRef ref) {
    out.push_back(h.materialize(ref).to_string());
    return true;
  });
  return out;
}

// The oracle: the pre-refactor linear filter over the per-table history.
std::vector<std::string> linear_result(const HistoryStore& h,
                                       const TuplePattern& pat) {
  std::vector<std::string> out;
  for (TupleRef ref : h.rows(pat.table)) {
    if (pat.matches(h.row_of(ref))) {
      out.push_back(h.materialize(ref).to_string());
    }
  }
  return out;
}

TEST(HistoryProbe, MatchesLinearScanOnAllScenarios) {
  Rng rng(2024);
  const std::vector<ndlog::CmpOp> ops = {ndlog::CmpOp::Eq, ndlog::CmpOp::Eq,
                                         ndlog::CmpOp::Ne, ndlog::CmpOp::Lt,
                                         ndlog::CmpOp::Ge};
  for (const scenario::Scenario& s : scenario::all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    Engine engine(s.program);
    engine.insert_batch(scenario::engine_trace(s, 1500));
    ASSERT_GT(engine.history().total(), 0u);

    size_t nonempty = 0;
    for (ndlog::Catalog::TableId id = 0; id < engine.catalog().size(); ++id) {
      const std::string& table = engine.catalog().name_of(id);
      const auto& hist = engine.history().rows(table);
      for (int trial = 0; trial < 40; ++trial) {
        TuplePattern pat;
        pat.table = table;
        const size_t nfields = rng.below(4);
        for (size_t f = 0; f < nfields; ++f) {
          FieldConstraint fc;
          fc.op = ops[rng.below(ops.size())];
          if (!hist.empty()) {
            // Draw column/value from a real row so patterns actually hit.
            const Row& row =
                engine.history().row_of(hist[rng.below(hist.size())]);
            if (row.empty()) continue;
            fc.col = rng.below(row.size() + 1);  // may exceed arity
            fc.value = fc.col < row.size() && rng.chance(0.8)
                           ? row[fc.col]
                           : Value(rng.range(0, 99));
          } else {
            fc.col = rng.below(4);
            fc.value = Value(rng.range(0, 99));
          }
          pat.fields.push_back(std::move(fc));
        }
        const auto want = linear_result(engine.history(), pat);
        EXPECT_EQ(probe_result(engine.history(), pat), want)
            << "pattern " << pat.to_string();
        // Forced-scan mode must agree too (it IS the linear filter).
        engine.history().attach(&engine.catalog(), &engine.log().pool(), false);
        EXPECT_EQ(probe_result(engine.history(), pat), want)
            << "scan-mode pattern " << pat.to_string();
        engine.history().attach(&engine.catalog(), &engine.log().pool(), true);
        nonempty += want.empty() ? 0 : 1;
      }
    }
    EXPECT_GT(nonempty, 0u) << "patterns never matched: test is vacuous";
    EXPECT_GT(engine.history().index_probes(), 0u);
  }
}

TEST(HistoryProbe, IndexHitVisitsOnlyTheBucket) {
  Engine e(ndlog::parse_program("table T/3.\n"));
  for (int i = 0; i < 100; ++i) {
    e.insert(Tuple{"T", {Value(1), Value(i % 10), Value(i)}});
  }
  TuplePattern pat;
  pat.table = "T";
  pat.fields = {{1, ndlog::CmpOp::Eq, Value(3)}};
  size_t matches = 0;
  const size_t scanned = e.history().probe(pat, [&](TupleRef) {
    ++matches;
    return true;
  });
  EXPECT_EQ(matches, 10u);
  EXPECT_EQ(scanned, 10u);  // bucket only, not the 100-row history
  EXPECT_EQ(e.history().full_scans(), 0u);
}

// --- checkpoint + truncate + replay ------------------------------------

std::map<std::string, std::multiset<std::string>> table_snapshot(
    const Engine& e) {
  std::map<std::string, std::multiset<std::string>> out;
  for (ndlog::Catalog::TableId id = 0; id < e.catalog().size(); ++id) {
    const std::string& name = e.catalog().name_of(id);
    auto& rows = out[name];
    for (const Tuple& t : e.all_tuples(name)) rows.insert(t.to_string());
  }
  return out;
}

// FNV-1a over the (kind, tuple) sequence of the *full* log, checkpointed
// prefix included (same hash the differential harness uses).
using testutil::event_sequence_hash;
using testutil::log_lines;

TEST(EventLogCheckpoint, RoundTripReplayReproducesTablesAndHash) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  Engine original(s.program, testutil::with_segments("history_round_trip"));
  original.insert_batch(scenario::engine_trace(s, 800));
  ASSERT_GT(original.log().size(), 100u);

  const auto want_tables = table_snapshot(original);
  const uint64_t want_hash = event_sequence_hash(original.log());
  const size_t want_events = original.log().size();
  const size_t want_bytes = original.log().byte_estimate();
  const Time t5 = original.log().event_time(5);

  // Compact all but the newest quarter; ids, accounting and the decoded
  // event sequence must be unaffected.
  const size_t keep = original.log().live_size() / 4;
  const size_t compacted = original.log().compact(keep);
  EXPECT_GT(compacted, 0u);
  EXPECT_EQ(original.log().live_size(), keep);
  EXPECT_EQ(original.log().base_id(), compacted);
  EXPECT_EQ(original.log().size(), want_events);
  EXPECT_GT(original.segments()->bytes(), 0u);
  // Splitting the log into a spilled section and a live suffix adds only
  // framing and the section's own name records.
  EXPECT_GE(original.log().byte_estimate(), want_bytes);
  EXPECT_EQ(original.log().event_time(5), t5);
  EXPECT_EQ(event_sequence_hash(original.log()), want_hash)
      << "segment decode must reproduce the event sequence";

  // Storage accounting: the interned format stores 16-bit table/rule ids
  // per entry (names once per section, in its string table), so entries
  // land below the paper's ~120 B/entry — but must stay in the same
  // order of magnitude (22 B header + row values + causes).
  const double per_entry =
      static_cast<double>(want_bytes) / static_cast<double>(want_events);
  EXPECT_GE(per_entry, 40.0);
  EXPECT_LE(per_entry, 240.0);

  // Replay spilled prefix + live suffix into a fresh engine through the
  // batched insert path: same fixpoint, same full event sequence.
  Engine rebuilt(s.program);
  const size_t applied = backtest::replay_base_stream(original.log(), rebuilt);
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(table_snapshot(rebuilt), want_tables);
  EXPECT_EQ(rebuilt.log().size(), want_events);
  EXPECT_EQ(event_sequence_hash(rebuilt.log()), want_hash);
}

TEST(EventLogCheckpoint, SerializedBytesMatchesWhatCompactionWrites) {
  Engine e(ndlog::parse_program(
               "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."),
           testutil::with_segments("history_serialized_bytes"));
  e.insert(Tuple{"B", {Value(1), Value(5)}});
  e.insert(Tuple{"B", {Value::str("node-seven"), Value(6)}});
  // byte_estimate = per-entry bytes plus the string-table records the
  // section writes once per distinct table/rule name and node.
  size_t entry_bytes = 0;
  for (const Event& ev : e.log().events()) {
    entry_bytes += e.log().serialized_bytes(ev);
  }
  const size_t want = e.log().byte_estimate();
  EXPECT_GT(want, entry_bytes) << "names section must be accounted";
  EXPECT_GT(e.log().compact(), 0u);
  EXPECT_GT(e.log().base_id(), 0u);
  EXPECT_EQ(e.log().live_size(), 0u);
  // The store holds one file header and one section (a names chunk and
  // an entries chunk); everything else is the section's payload.
  const size_t framing =
      storage::kFileHeaderBytes + 2 * storage::kChunkHeaderBytes;
  ASSERT_GE(e.segments()->bytes(), framing);
  EXPECT_EQ(e.segments()->bytes() - framing, want)
      << "byte_estimate must agree with what compaction actually writes";
  EXPECT_EQ(e.log().byte_estimate(), e.segments()->bytes());
}

// A sink stand-in for compact()'s no-home paths: it can report a latched
// failure or reject sections while claiming health, and counts offers.
class RefusingSink final : public CheckpointSink {
 public:
  explicit RefusingSink(bool failed) : failed_(failed) {}
  bool append_section(EventId, size_t, std::span<const uint8_t>,
                      std::span<const uint8_t>) override {
    ++offers;
    return false;
  }
  bool failed() const override { return failed_; }
  void replay_raw(
      const std::function<bool(const EventView&)>&) const override {}
  size_t events() const override { return 0; }
  size_t bytes() const override { return 0; }
  size_t offers = 0;

 private:
  bool failed_;
};

// The sink is the log's only checkpoint home: with none attached, or one
// that latched failed(), compact() serializes nothing and moves nothing —
// every event stays live and the walked record is byte-identical.
TEST(EventLogCheckpoint, CompactWithoutUsableSinkLeavesEveryEventLive) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  Engine e(s.program);
  e.insert_batch(scenario::engine_trace(s, 300));
  const std::vector<std::string> want = log_lines(e.log());
  const size_t live = e.log().live_size();
  ASSERT_GT(live, 100u);

  EXPECT_EQ(e.log().compact(0), 0u) << "no sink attached";
  EXPECT_EQ(e.log().base_id(), 0u);
  EXPECT_EQ(e.log().live_size(), live);
  EXPECT_EQ(log_lines(e.log()), want);

  RefusingSink failed(/*failed=*/true);
  e.log().set_spill(&failed);
  EXPECT_EQ(e.log().compact(0), 0u) << "failed() sink attached";
  EXPECT_EQ(failed.offers, 0u) << "a failed sink must not be offered sections";
  EXPECT_EQ(e.log().live_size(), live);
  EXPECT_EQ(log_lines(e.log()), want);

  // A sink that rejects the section without having latched failed():
  // the offered events stay live too.
  RefusingSink rejecting(/*failed=*/false);
  e.log().set_spill(&rejecting);
  EXPECT_EQ(e.log().compact(0), 0u);
  EXPECT_EQ(rejecting.offers, 1u);
  EXPECT_EQ(e.log().live_size(), live);
  EXPECT_EQ(log_lines(e.log()), want);
  e.log().set_spill(nullptr);
}

// The EngineOptions auto-compaction policy: once the live suffix crosses
// the configured threshold, a top-level insert triggers
// EventLog::compact(compact_keep_live) into the segment store — and event
// ids, timestamps, the decoded sequence and replay all stay stable across
// the automatic truncations.
TEST(EventLogCheckpoint, AutoCompactionKeepsIdsStable) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  Engine plain(s.program);
  const std::vector<Tuple> trace = scenario::engine_trace(s, 600);
  for (const Tuple& t : trace) plain.insert(t);

  EngineOptions opt = testutil::with_segments("history_auto_compaction");
  opt.compact_after_events = 200;
  opt.compact_keep_live = 50;
  Engine compacting(s.program, opt);
  for (const Tuple& t : trace) compacting.insert(t);

  // Compaction actually auto-triggered (repeatedly), bounding the live
  // suffix near the policy's knee...
  EXPECT_GT(compacting.log().base_id(), 0u);
  EXPECT_GT(compacting.segments()->events(), 0u);
  EXPECT_LE(compacting.log().live_size(), opt.compact_after_events + 64);
  // ...without perturbing evaluation or the id space.
  EXPECT_EQ(compacting.log().size(), plain.log().size());
  EXPECT_EQ(compacting.rule_firings(), plain.rule_firings());
  EXPECT_EQ(event_sequence_hash(compacting.log()),
            event_sequence_hash(plain.log()));
  EXPECT_EQ(table_snapshot(compacting), table_snapshot(plain));
  for (EventId id : {EventId{0}, EventId{17},
                     EventId{compacting.log().size() - 1}}) {
    EXPECT_EQ(compacting.log().event_time(id), plain.log().event_time(id))
        << "event " << id << " must stay addressable after auto-compaction";
  }

  // Replay of the auto-compacted log reproduces the same fixpoint.
  Engine rebuilt(s.program);
  backtest::replay_base_stream(compacting.log(), rebuilt);
  EXPECT_EQ(table_snapshot(rebuilt), table_snapshot(plain));
}

TEST(EventLogCheckpoint, CompactedDeleteEventsReplayToo) {
  const char* prog = "table A/2.\ntable B/3.\n";
  Engine original(ndlog::parse_program(prog),
                  testutil::with_segments("history_deletes"));
  for (int i = 0; i < 20; ++i) {
    original.insert(Tuple{"A", {Value(1), Value(i)}});
    original.insert(Tuple{"B", {Value(2), Value(i), Value(i * 3)}});
  }
  for (int i = 0; i < 10; i += 2) {
    original.remove(Tuple{"A", {Value(1), Value(i)}});
  }
  const auto want_tables = table_snapshot(original);
  const uint64_t want_hash = event_sequence_hash(original.log());
  EXPECT_GT(original.log().compact(3), 0u);
  EXPECT_GT(original.log().base_id(), 0u);

  Engine rebuilt(ndlog::parse_program(prog));
  backtest::replay_base_stream(original.log(), rebuilt);
  EXPECT_EQ(table_snapshot(rebuilt), want_tables);
  EXPECT_EQ(event_sequence_hash(rebuilt.log()), want_hash);
}

// Regression: a decoded event's cause span used to point into one shared
// mutable scratch vector that the next decode silently clobbered, so
// nested iteration — holding one spilled event's causes while walking the
// rest of the spilled prefix — read garbage. Every for_each_event walk
// decodes through a segment reader of its own; the outer view's causes
// must survive a full inner walk untouched. (A span left dangling by the
// inner walk is a heap-use-after-free that only an ASan build reports.)
TEST(EventLogCheckpoint, DecodedCausesSurviveInterleavedDecodes) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  Engine e(s.program, testutil::with_segments("history_interleaved"));
  e.insert_batch(scenario::engine_trace(s, 300));
  EXPECT_GT(e.log().compact(0), 0u);  // everything decodes from segments
  ASSERT_GT(e.log().base_id(), 0u);
  ASSERT_EQ(e.log().live_size(), 0u);
  const EventLog& log = e.log();

  // Ground truth, collected one event per decode (no interleaving).
  std::map<EventId, std::vector<EventId>> want;
  log.for_each_event([&](const EventView& ev) {
    want[ev.id].assign(ev.causes.begin(), ev.causes.end());
  });
  size_t with_causes = 0;
  for (const auto& [id, c] : want) with_causes += c.empty() ? 0 : 1;
  ASSERT_GT(with_causes, 10u) << "fixture records no causal links";

  // Adversarial interleaving: while holding each outer event's span, run
  // a complete inner decode pass over the same spilled prefix, then read
  // the outer span.
  size_t checked = 0;
  log.for_each_event([&](const EventView& outer) {
    const std::span<const EventId> span = outer.causes;
    if (span.empty()) return;
    uint64_t inner_sum = 0;
    log.for_each_event([&](const EventView& inner) {
      for (EventId c : inner.causes) inner_sum += c;
    });
    ASSERT_GT(inner_sum, 0u);
    EXPECT_TRUE(std::equal(span.begin(), span.end(), want[outer.id].begin(),
                           want[outer.id].end()))
        << "event " << outer.id
        << ": cause span clobbered by interleaved decodes";
    ++checked;
  });
  EXPECT_EQ(checked, with_causes);
}

// A segment section decodes through its own string-table records, never
// through the writer's id space: reloading a store with
// replay_base_stream into an engine whose catalog interned every table
// in a different order rebuilds identical tables, and repair exploration
// on it is byte-identical to exploration on the engine that wrote it.
TEST(EventLogCheckpoint, SegmentReloadIntoScrambledCatalogMatches) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  const EngineOptions opt = testutil::with_segments("history_scrambled");
  Engine writer(s.program, opt);
  writer.insert_batch(scenario::engine_trace(s, 300));
  const std::vector<std::string> want_repairs =
      testutil::explore_all(s, writer);
  ASSERT_FALSE(want_repairs.empty());
  EXPECT_GT(writer.log().compact(0), 0u);
  ASSERT_GT(writer.log().base_id(), 0u);
  ASSERT_EQ(writer.log().live_size(), 0u);
  writer.segments()->flush(false);

  // Same rules, table declarations reversed: every declared table lands
  // on a different TableId in the reloading engine.
  ndlog::Program scrambled = s.program;
  std::reverse(scrambled.tables.begin(), scrambled.tables.end());
  Engine reloaded(scrambled);
  size_t moved = 0;
  for (const ndlog::TableDecl& t : s.program.tables) {
    moved += writer.catalog().id_of(t.name) != reloaded.catalog().id_of(t.name);
  }
  ASSERT_GT(moved, 1u) << "fixture did not scramble the id space";

  storage::SegmentStore store(opt.segment_dir);
  ASSERT_EQ(store.recovered_events(), writer.log().size());
  EXPECT_GT(backtest::replay_base_stream(store, reloaded), 0u);
  EXPECT_EQ(testutil::table_multisets(reloaded),
            testutil::table_multisets(writer));
  EXPECT_EQ(testutil::explore_all(s, reloaded), want_repairs);
}

// --- repair regression --------------------------------------------------

// One line per candidate (cost + description + change count, the shared
// testutil canonical form), so any drift in the repair sets, their costs
// or their order fails the comparison.
using testutil::explore_all;

TEST(RepairRegression, ExplorerOutputIdenticalIndexedVsScan) {
  size_t index_probes = 0;
  size_t full_scans = 0;
  for (const scenario::Scenario& s : scenario::all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    Engine engine(s.program);
    engine.insert_batch(scenario::engine_trace(s, 1500));

    const auto indexed = explore_all(s, engine);
    EXPECT_FALSE(indexed.empty());
    index_probes += engine.history().index_probes();
    full_scans += engine.history().full_scans();
    // Forced-scan history is exactly the legacy linear filtering the
    // refactor replaced; the repair generator must not be able to tell.
    engine.history().attach(&engine.catalog(), &engine.log().pool(), false);
    const auto scanned = explore_all(s, engine);
    engine.history().attach(&engine.catalog(), &engine.log().pool(), true);
    EXPECT_EQ(indexed, scanned);
  }
  // In aggregate the five scenarios exercise both access paths (a
  // single-atom rule only ever yields the fallback scan; multi-atom joins
  // and bound-column symptom patterns yield index hits).
  EXPECT_GT(index_probes, 0u);
  EXPECT_GT(full_scans, 0u);
}

}  // namespace
}  // namespace mp::eval
