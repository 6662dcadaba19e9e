// TuplePool unit coverage (the interned-tuple provenance fast path):
//   - intern/find dedup semantics and precomputed hashes,
//   - handle stability: refs (and the Rows they resolve to) survive pool
//     growth and EventLog compaction (the pool is never truncated),
//   - interning-on/off cross-check: replaying a log's materialized events
//     through the legacy string-based append into a standalone EventLog
//     (its own catalog + pool) reproduces the exact event sequence on all
//     five scenarios — the handle representation is observationally
//     equivalent to the string representation it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "eval/tuple_pool.h"
#include "scenarios/scenario.h"
#include "sdn/topology.h"
#include "test_util.h"

namespace mp::eval {
namespace {

TEST(TuplePool, InternDedupsAndFindsWithoutInserting) {
  TuplePool pool;
  const Row r1 = {Value(1), Value(2)};
  const Row r2 = {Value(1), Value::str("x")};
  const TupleRef a = pool.intern(0, r1);
  const TupleRef b = pool.intern(0, r2);
  const TupleRef c = pool.intern(1, r1);  // same row, different table
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.intern(0, r1), a) << "re-intern must dedup to the handle";
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.find(0, r1), a);
  EXPECT_EQ(pool.find(0, {Value(9)}), kNoTupleRef);
  EXPECT_EQ(pool.size(), 3u) << "find must not insert";
  EXPECT_EQ(pool.table(a), 0u);
  EXPECT_EQ(pool.row(b), r2);
  EXPECT_EQ(pool.hash(a), pool.hash(pool.intern(0, r1)));
}

TEST(TuplePool, HandlesAndRowsStableAcrossGrowth) {
  TuplePool pool;
  const TupleRef first = pool.intern(0, {Value(-1), Value(-2)});
  const Row* first_row = &pool.row(first);
  for (int64_t i = 0; i < 20000; ++i) {
    pool.intern(0, {Value(i), Value(i * 3)});
  }
  // The dedup index rehashed many times; slots must not have moved.
  EXPECT_EQ(&pool.row(first), first_row);
  EXPECT_EQ(pool.row(first)[0], Value(-1));
  EXPECT_EQ(pool.find(0, {Value(-1), Value(-2)}), first);
}

TEST(TuplePool, HandlesSurviveEventLogCompaction) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  const std::vector<Tuple> trace = scenario::engine_trace(s, 600);
  // The reference run never compacts: its log is the full history the
  // compacting run must still read back.
  Engine ref(s.program);
  ref.insert_batch(trace);
  std::vector<std::string> before;
  for (const Event& ev : ref.log().events()) {
    before.push_back(ref.log().tuple_of(ev).to_string());
  }
  const uint64_t want_hash = testutil::event_sequence_hash(ref.log());
  const std::vector<std::string> want_lines = testutil::log_lines(ref.log());

  // Two compactions with traffic in between: the events appended after
  // the first one share the cause arena with its survivors, and the
  // second one serializes those survivors from their rebased offsets.
  Engine e(s.program, testutil::with_segments("tuple_pool_compaction"));
  const std::span<const Tuple> all(trace);
  const size_t half = trace.size() / 2;
  for (const std::span<const Tuple> part : {all.first(half), all.subspan(half)}) {
    e.insert_batch(part);
    ASSERT_GT(e.log().live_size(), 100u);
    const size_t pool_size = e.log().pool().size();
    const auto base_before = e.log().base_id();
    EXPECT_GT(e.log().compact(e.log().live_size() / 4), 0u);
    EXPECT_GT(e.log().base_id(), base_before);
    EXPECT_EQ(e.log().pool().size(), pool_size)
        << "compaction must never truncate the pool";
  }
  // History handles recorded before compaction still resolve.
  for (ndlog::Catalog::TableId id = 0; id < e.catalog().size(); ++id) {
    for (TupleRef ref : e.history().rows(id)) {
      EXPECT_EQ(e.log().table_of(ref), id);
      EXPECT_FALSE(e.log().materialize(ref).to_string().empty());
    }
  }
  // Spilled entries decoded from the segment store resolve to the same
  // tuples as the live events they replaced.
  std::vector<std::string> after;
  e.log().for_each_event([&](const EventView& ev) {
    after.push_back(Tuple{std::string(ev.table), *ev.row}.to_string());
  });
  EXPECT_EQ(after, before);
  EXPECT_EQ(testutil::event_sequence_hash(e.log()), want_hash);
  EXPECT_EQ(testutil::log_lines(e.log()), want_lines)
      << "the full history, cause lists included, must survive compaction";
}

// Interning-on/off cross-check: rebuild each scenario log through the
// legacy string-materializing append (a standalone EventLog with its own
// catalog and pool, i.e. "interning off" from the producer's point of
// view) and require the exact event sequence, causal links and rule names
// to survive the round trip.
TEST(TuplePool, StringRoundTripReproducesEventSequenceOnAllScenarios) {
  for (const scenario::Scenario& s : scenario::all_scenarios()) {
    SCOPED_TRACE("scenario " + s.id);
    Engine e(s.program);
    e.insert_batch(scenario::engine_trace(s, 1200));
    ASSERT_GT(e.log().size(), 0u);

    EventLog rebuilt;
    e.log().for_each_event([&](const EventView& ev) {
      rebuilt.append(ev.kind, *ev.node, Tuple{std::string(ev.table), *ev.row},
                     ev.tags, {ev.causes.begin(), ev.causes.end()},
                     std::string(ev.rule));
    });
    ASSERT_EQ(rebuilt.size(), e.log().size());
    EXPECT_EQ(testutil::event_sequence_hash(rebuilt),
              testutil::event_sequence_hash(e.log()));
    // Ids, nodes, rows, rule names and cause lists, event by event.
    EXPECT_EQ(testutil::log_lines(rebuilt), testutil::log_lines(e.log()));
  }
}

}  // namespace
}  // namespace mp::eval
