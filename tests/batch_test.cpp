// Batched insertion/removal (Engine::insert_batch / Engine::remove_batch):
// the batched paths must reach the same fixpoint as tuple-at-a-time
// insertion — identical final table states, event-log lengths, derivation
// records and firing counts. Also covers TableStore's index maintenance on
// erase, the duplicate-insert index discipline, and the event-log
// base-stream replay built on top of the batch API.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "backtest/replay.h"
#include "eval/database.h"
#include "eval/engine.h"
#include "ndlog/parser.h"
#include "util/rng.h"

namespace mp::eval {
namespace {

Tuple t(const std::string& table, std::initializer_list<Value> vals) {
  return Tuple{table, Row(vals)};
}

// Join-heavy program shared by the equivalence tests: multi-atom joins, a
// keyed table (replacement semantics) and enough rule depth for cascades.
const char* kJoinProgram =
    "table A/2.\ntable L/3 keys(0,1).\ntable R/3.\ntable Out/4.\n"
    "r1 Out(@X,V,W,U) :- A(@X,V), L(@X,V,W), R(@X,W,U).\n"
    "r2 Out(@X,V,V,V) :- A(@X,V), L(@X,V,V).\n";

std::vector<Tuple> join_workload() {
  std::vector<Tuple> w;
  for (int i = 0; i < 8; ++i) {
    w.push_back(t("L", {Value(1), Value(i), Value(i + 100)}));
    w.push_back(t("R", {Value(1), Value(i + 100), Value(i * 2)}));
  }
  for (int i = 0; i < 8; ++i) w.push_back(t("A", {Value(1), Value(i)}));
  // Key replacement: displace half the L rows (cascades through r1).
  for (int i = 0; i < 4; ++i) {
    w.push_back(t("L", {Value(1), Value(i), Value(i + 200)}));
  }
  w.push_back(t("L", {Value(1), Value(7), Value(7)}));  // r2 self-dup column
  return w;
}

constexpr const char* kJoinTables[] = {"A", "L", "R", "Out"};

std::multiset<std::string> table_snapshot(const Engine& e,
                                          std::span<const char* const> tables) {
  std::multiset<std::string> out;
  for (const char* table : tables) {
    for (const Tuple& tup : e.all_tuples(table)) out.insert(tup.to_string());
  }
  return out;
}

std::multiset<std::string> table_snapshot(const Engine& e) {
  return table_snapshot(e, kJoinTables);
}

std::multiset<std::string> derivation_snapshot(const Engine& e) {
  std::multiset<std::string> out;
  const EventLog& log = e.log();
  for (const DerivRecord& rec : log.derivations()) {
    std::string s =
        log.rule_name(rec.rule) + " " + log.head_of(rec).to_string() + " :-";
    for (TupleRef b : log.body_of(rec)) s += " " + log.materialize(b).to_string();
    out.insert((rec.live ? "live " : "dead ") + s);
  }
  return out;
}

std::vector<std::string> event_sequence(const Engine& e) {
  std::vector<std::string> out;
  out.reserve(e.log().size());
  for (const Event& ev : e.log().events()) {
    out.push_back(std::string(to_string(ev.kind)) + " " +
                  e.log().tuple_of(ev).to_string());
  }
  return out;
}

void expect_equivalent(const Engine& batched, const Engine& sequential,
                       const std::string& what,
                       std::span<const char* const> tables = kJoinTables) {
  EXPECT_EQ(batched.rule_firings(), sequential.rule_firings()) << what;
  EXPECT_EQ(batched.log().size(), sequential.log().size()) << what;
  EXPECT_EQ(batched.log().derivations().size(),
            sequential.log().derivations().size())
      << what;
  EXPECT_EQ(table_snapshot(batched, tables), table_snapshot(sequential, tables))
      << what;
  EXPECT_EQ(derivation_snapshot(batched), derivation_snapshot(sequential))
      << what;
  // The batch path keeps the per-tuple evaluation order, so even the exact
  // provenance event sequence must agree, not just the final fixpoint.
  EXPECT_EQ(event_sequence(batched), event_sequence(sequential)) << what;
}

TEST(BatchInsert, MatchesSequentialAcrossBatchSizes) {
  const std::vector<Tuple> work = join_workload();
  Engine sequential(ndlog::parse_program(kJoinProgram));
  for (const Tuple& tup : work) sequential.insert(tup);

  for (size_t batch_size : {size_t{1}, size_t{3}, size_t{7}, work.size()}) {
    Engine batched(ndlog::parse_program(kJoinProgram));
    for (size_t i = 0; i < work.size(); i += batch_size) {
      const size_t n = std::min(batch_size, work.size() - i);
      batched.insert_batch(std::span<const Tuple>(work.data() + i, n));
    }
    expect_equivalent(batched, sequential,
                      "batch_size=" + std::to_string(batch_size));
  }
}

TEST(BatchInsert, EmptyBatchIsANoop) {
  Engine e(ndlog::parse_program(kJoinProgram));
  e.insert_batch(std::vector<Tuple>{});
  e.remove_batch(std::vector<Tuple>{});
  EXPECT_EQ(e.log().size(), 0u);
  EXPECT_EQ(e.rule_firings(), 0u);
}

TEST(BatchInsert, PairOverloadCarriesPerTupleTags) {
  EngineOptions opt;
  opt.tag_mode = true;
  Engine e(ndlog::parse_program(
               "table A/2.\ntable L/2.\ntable R/2.\n"
               "r1 A(@X,V) :- L(@X,V), R(@X,V), V > 0."),
           opt);
  std::vector<std::pair<Tuple, TagMask>> batch = {
      {t("L", {Value(1), Value(3)}), TagMask{0b011}},
      {t("R", {Value(1), Value(3)}), TagMask{0b110}},
  };
  e.insert_batch(batch);
  EXPECT_EQ(e.tags_of(Value(1), "A", {Value(1), Value(3)}), TagMask{0b010});
}

TEST(BatchRemove, CascadesLikeSequentialRemoves) {
  const std::vector<Tuple> work = join_workload();
  std::vector<Tuple> removals;
  for (int i = 0; i < 3; ++i) removals.push_back(t("A", {Value(1), Value(i)}));
  removals.push_back(t("R", {Value(1), Value(105), Value(10)}));

  Engine sequential(ndlog::parse_program(kJoinProgram));
  for (const Tuple& tup : work) sequential.insert(tup);
  for (const Tuple& tup : removals) sequential.remove(tup);

  Engine batched(ndlog::parse_program(kJoinProgram));
  batched.insert_batch(work);
  batched.remove_batch(removals);

  expect_equivalent(batched, sequential, "remove_batch");
}

TEST(BatchInsert, DivergenceGuardStillTrips) {
  EngineOptions opt;
  opt.max_steps = 200;
  Engine e(ndlog::parse_program(
               "table A/2.\nr1 A(@X,Q) :- A(@X,P), Q := P + 1, P < 1000000."),
           opt);
  std::vector<Tuple> batch = {t("A", {Value(1), Value(0)})};
  e.insert_batch(batch);
  EXPECT_TRUE(e.diverged());
}

// --- duplicate-insert index discipline --------------------------------

TEST(TableStore, DuplicateInsertIsIndexedExactlyOnce) {
  std::vector<std::vector<uint32_t>> specs{{0}};
  TuplePool pool;
  TableStore s;
  s.attach(&pool, 0);
  s.configure_indexes(&specs);
  Row row{Value(1), Value(2)};
  s.insert(row).support += 1;
  s.insert(row).support += 1;  // duplicate: same entry, no second index add
  const TableStore::Bucket* b = s.probe(0, {Value(1)});
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->size(), 1u) << "a duplicate insert must not bump the index";
  s.erase(row);
  EXPECT_EQ(s.probe(0, {Value(1)}), nullptr);
}

TEST(Engine, DuplicateInsertDoesNotDuplicateJoinMatches) {
  Engine e(ndlog::parse_program(
      "table A/2.\ntable L/2.\ntable Out/2.\n"
      "r1 Out(@X,V) :- A(@X,V), L(@X,V).\n"));
  e.insert(t("L", {Value(1), Value(5)}));
  e.insert(t("L", {Value(1), Value(5)}));  // support 2, one index entry
  e.insert(t("A", {Value(1), Value(5)}));
  // If the duplicate had been indexed twice, the probe would enumerate the
  // L row twice and r1 would fire twice.
  EXPECT_EQ(e.rule_firings(), 1u);
  // One remove leaves the second support; the derivation survives.
  e.remove(t("L", {Value(1), Value(5)}));
  EXPECT_TRUE(e.exists(Value(1), "Out", {Value(1), Value(5)}));
  e.remove(t("L", {Value(1), Value(5)}));
  EXPECT_FALSE(e.exists(Value(1), "Out", {Value(1), Value(5)}));
}

// --- index maintenance -----------------------------------------------

TEST(TableStore, EraseKeepsBucketMateIndexed) {
  std::vector<std::vector<uint32_t>> specs{{0}};
  TuplePool pool;
  TableStore s;
  s.attach(&pool, 0);
  s.configure_indexes(&specs);
  s.insert({Value(1), Value(10)}).support += 1;
  s.insert({Value(1), Value(11)}).support += 1;
  // Erasing one row of a two-row bucket must leave the other row indexed
  // and no stale bucket entry behind.
  s.erase({Value(1), Value(10)});
  const TableStore::Bucket* b = s.probe(0, {Value(1)});
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->size(), 1u);
  EXPECT_EQ(s.row_at((*b)[0]), Row({Value(1), Value(11)}));
}

// --- randomized differential property ---------------------------------

struct Op {
  bool is_remove = false;
  Tuple tuple;
};

// Deterministic random stream of inserts (with duplicates) and removes of
// previously inserted tuples over the join program's base tables.
std::vector<Op> random_stream(uint64_t seed, size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<Tuple> inserted;
  for (size_t i = 0; i < n_ops; ++i) {
    const uint64_t roll = rng.below(100);
    if (roll < 20 && !inserted.empty()) {
      ops.push_back({true, inserted[rng.below(inserted.size())]});
      continue;
    }
    if (roll < 30 && !inserted.empty()) {  // duplicate insert
      ops.push_back({false, inserted[rng.below(inserted.size())]});
      continue;
    }
    const Value x(static_cast<int64_t>(rng.below(2)) + 1);
    const Value v(static_cast<int64_t>(rng.below(6)));
    const Value w(static_cast<int64_t>(rng.below(6)));
    Tuple tup;
    switch (rng.below(3)) {
      case 0: tup = Tuple{"A", {x, v}}; break;
      case 1: tup = Tuple{"L", {x, v, w}}; break;
      default: tup = Tuple{"R", {x, v, w}}; break;
    }
    inserted.push_back(tup);
    ops.push_back({false, std::move(tup)});
  }
  return ops;
}

void apply_sequential(Engine& e, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.is_remove) {
      e.remove(op.tuple);
    } else {
      e.insert(op.tuple);
    }
  }
}

// Groups runs of consecutive same-kind ops into batches with random sizes.
void apply_batched(Engine& e, const std::vector<Op>& ops, uint64_t seed) {
  Rng rng(seed);
  size_t i = 0;
  std::vector<Tuple> group;
  while (i < ops.size()) {
    const bool removing = ops[i].is_remove;
    const size_t cap = rng.below(16) + 1;
    group.clear();
    while (i < ops.size() && ops[i].is_remove == removing &&
           group.size() < cap) {
      group.push_back(ops[i].tuple);
      ++i;
    }
    if (removing) {
      e.remove_batch(group);
    } else {
      e.insert_batch(group);
    }
  }
}

TEST(BatchProperty, RandomStreamsMatchSequentialWithIndexesOnAndOff) {
  for (uint64_t seed : {7ull, 23ull, 101ull}) {
    const std::vector<Op> ops = random_stream(seed, 300);
    EngineOptions scan_opt;
    scan_opt.use_indexes = false;

    Engine seq_idx(ndlog::parse_program(kJoinProgram));
    Engine bat_idx(ndlog::parse_program(kJoinProgram));
    Engine seq_scan(ndlog::parse_program(kJoinProgram), scan_opt);
    Engine bat_scan(ndlog::parse_program(kJoinProgram), scan_opt);

    apply_sequential(seq_idx, ops);
    apply_batched(bat_idx, ops, seed * 31);
    apply_sequential(seq_scan, ops);
    apply_batched(bat_scan, ops, seed * 137);

    const std::string what = "seed=" + std::to_string(seed);
    expect_equivalent(bat_idx, seq_idx, what + " (indexes on)");
    expect_equivalent(bat_scan, seq_scan, what + " (indexes off)");
    // Across access paths only the *sets* of events must agree (match
    // enumeration order differs between bucket and map iteration).
    EXPECT_EQ(table_snapshot(seq_scan), table_snapshot(seq_idx)) << what;
    EXPECT_EQ(derivation_snapshot(seq_scan), derivation_snapshot(seq_idx))
        << what;
    const auto sseq = event_sequence(seq_scan);
    const auto iseq = event_sequence(seq_idx);
    EXPECT_EQ(std::multiset<std::string>(sseq.begin(), sseq.end()),
              std::multiset<std::string>(iseq.begin(), iseq.end()))
        << what;
    EXPECT_GT(bat_idx.index_probes(), 0u);
    EXPECT_EQ(bat_scan.index_probes(), 0u);
  }
}

// --- event-log base-stream replay --------------------------------------

TEST(ReplayBaseStream, RebuildsTablesFromRecordedLog) {
  const std::vector<Op> ops = random_stream(42, 200);
  Engine original(ndlog::parse_program(kJoinProgram));
  apply_sequential(original, ops);

  Engine rebuilt(ndlog::parse_program(kJoinProgram));
  const size_t applied = backtest::replay_base_stream(original.log(), rebuilt);
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(table_snapshot(rebuilt), table_snapshot(original));
  EXPECT_EQ(rebuilt.rule_firings(), original.rule_firings());
  EXPECT_EQ(rebuilt.log().size(), original.log().size());
}

// --- insert_batch vs insert: re-entrancy, displacement, divergence ----

// Fan-out program: every In insert derives three Mid rows, two of which
// fire into Out.
const char* kFanoutProgram =
    "table Mid/3.\ntable Out/3.\nevent In/2.\n"
    "c1 Mid(@X,V,1) :- In(@X,V).\n"
    "c2 Mid(@X,V,2) :- In(@X,V).\n"
    "c3 Mid(@X,V,3) :- In(@X,V).\n"
    "o1 Out(@X,K,V) :- Mid(@X,V,K), K < 3.\n";

TEST(BatchInsert, ReentrantCallbackInsertsMatchSequential) {
  // A callback on Out re-entrantly inserts into In on every third
  // appearance; the nested inserts must interleave with the batch's own
  // tuples exactly as they do with one insert() per tuple.
  std::vector<Tuple> work;
  for (int i = 0; i < 10; ++i) work.push_back(t("In", {Value(1), Value(i)}));
  auto drive = [&work](bool batched, size_t& callbacks) {
    auto engine =
        std::make_unique<Engine>(ndlog::parse_program(kFanoutProgram));
    Engine* raw = engine.get();
    callbacks = 0;
    engine->on_appear("Out", [raw, &callbacks](const Tuple& tup, TagMask) {
      ++callbacks;
      if (callbacks % 3 == 0 && callbacks < 30) {
        raw->insert(Tuple{
            "In", {tup.row[0], Value(1000 + static_cast<int64_t>(callbacks))}});
      }
    });
    if (batched) {
      raw->insert_batch(work);
    } else {
      for (const Tuple& tup : work) raw->insert(tup);
    }
    return engine;
  };
  size_t cb_batched = 0, cb_sequential = 0;
  auto batched = drive(true, cb_batched);
  auto sequential = drive(false, cb_sequential);
  EXPECT_GT(cb_batched, 0u);
  EXPECT_EQ(cb_batched, cb_sequential);
  constexpr const char* tables[] = {"Mid", "Out"};
  expect_equivalent(*batched, *sequential, "re-entrant callback inserts",
                    tables);
}

TEST(BatchInsert, KeyReplacementCascadesMatchSequential) {
  // Keyed head table: every duplicate-key derivation displaces the prior
  // row, retracting its downstream derivations mid-cascade. Key
  // replacement is order-sensitive (last appearance wins).
  const char* prog =
      "table Slot/3 keys(0,1).\ntable Shadow/3.\nevent In/2.\n"
      "k1 Slot(@X,1,V) :- In(@X,V).\n"
      "k2 Slot(@X,2,V) :- In(@X,V).\n"
      "k3 Shadow(@X,V,1) :- In(@X,V).\n"
      "k4 Shadow(@X,V,2) :- In(@X,V).\n"
      "d1 Shadow(@X,K,V) :- Slot(@X,K,V), K == 1.\n";
  // Same key (X=1, 1/2) every round: each insert displaces both Slot rows
  // and underives d1's Shadow row.
  std::vector<Tuple> work;
  for (int i = 0; i < 12; ++i) work.push_back(t("In", {Value(1), Value(i)}));
  Engine sequential(ndlog::parse_program(prog));
  for (const Tuple& tup : work) sequential.insert(tup);
  Engine batched(ndlog::parse_program(prog));
  batched.insert_batch(work);
  constexpr const char* tables[] = {"Slot", "Shadow"};
  expect_equivalent(batched, sequential, "keyed displacement cascade", tables);
}

TEST(BatchInsert, DivergenceMidBatchWithDuplicatesMatchesSequential) {
  // The first S row's cascade runs away and trips the divergence guard
  // partway through the batch; the remaining rows (duplicates among them)
  // must land exactly as they do with one insert() per tuple.
  const char* prog =
      "table S/2.\ntable B/2.\n"
      "s1 B(@X,V) :- S(@X,V).\n"
      "s2 B(@X,Q) :- B(@X,P), Q := P + 1, P < 1000000.\n";
  std::vector<Tuple> work;
  for (int i = 0; i < 8; ++i) {
    work.push_back(t("S", {Value(1), Value(i % 3)}));  // dup rows in the run
  }
  EngineOptions opt;
  opt.max_steps = 200;
  Engine sequential(ndlog::parse_program(prog), opt);
  for (const Tuple& tup : work) sequential.insert(tup);
  ASSERT_TRUE(sequential.diverged());

  Engine batched(ndlog::parse_program(prog), opt);
  batched.insert_batch(work);
  EXPECT_TRUE(batched.diverged());
  constexpr const char* tables[] = {"S", "B"};
  expect_equivalent(batched, sequential, "divergence mid-batch", tables);
}

}  // namespace
}  // namespace mp::eval
