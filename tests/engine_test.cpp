// Tests for the evaluation engine and provenance: derivation, joins,
// event vs. materialized semantics, key replacement, deletion cascade,
// cross-node messages, tag mode, and provenance graphs.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/engine.h"
#include "ndlog/parser.h"
#include "provenance/query.h"
#include "util/rng.h"

namespace mp::eval {
namespace {

Tuple t(const std::string& table, std::initializer_list<Value> vals) {
  return Tuple{table, Row(vals)};
}

TEST(Engine, DerivesThroughSingleRule) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,P) :- B(@X,Q), P := Q * 2, Q > 0."));
  e.insert(t("B", {Value(1), Value(5)}));
  EXPECT_TRUE(e.exists(Value(1), "A", {Value(1), Value(10)}));
  e.insert(t("B", {Value(1), Value(-5)}));  // fails the selection
  EXPECT_EQ(e.rows(Value(1), "A").size(), 1u);
}

TEST(Engine, EventTuplesAreNotStored) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."));
  e.insert(t("B", {Value(1), Value(5)}));
  EXPECT_TRUE(e.exists(Value(1), "A", {Value(1), Value(5)}));
  EXPECT_FALSE(e.exists(Value(1), "B", {Value(1), Value(5)}));
}

TEST(Engine, JoinsEventWithMaterializedState) {
  Engine e(ndlog::parse_program(
      "table A/3.\ntable Cfg/3.\nevent B/2.\n"
      "r1 A(@X,Q,P) :- B(@X,Q), Cfg(@X,Q,P), Q >= 0."));
  e.insert(t("Cfg", {Value(1), Value(7), Value(99)}));
  e.insert(t("B", {Value(1), Value(7)}));
  EXPECT_TRUE(e.exists(Value(1), "A", {Value(1), Value(7), Value(99)}));
  // Join with non-matching key does not fire.
  e.insert(t("B", {Value(1), Value(8)}));
  EXPECT_EQ(e.rows(Value(1), "A").size(), 1u);
}

TEST(Engine, MaterializedJoinTriggersOnEitherSide) {
  Engine e(ndlog::parse_program(
      "table A/2.\ntable L/2.\ntable R/2.\n"
      "r1 A(@X,V) :- L(@X,V), R(@X,V), V > 0."));
  e.insert(t("L", {Value(1), Value(3)}));
  EXPECT_FALSE(e.exists(Value(1), "A", {Value(1), Value(3)}));
  e.insert(t("R", {Value(1), Value(3)}));  // arrives second
  EXPECT_TRUE(e.exists(Value(1), "A", {Value(1), Value(3)}));
}

TEST(Engine, RemoteDerivationSendsMessage) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/3.\nr1 A(@Y,Q) :- B(@X,Y,Q), Q > 0."));
  e.insert(t("B", {Value(1), Value(2), Value(9)}));
  EXPECT_TRUE(e.exists(Value(2), "A", {Value(2), Value(9)}));
  bool saw_send = false, saw_recv = false;
  for (const auto& ev : e.log().events()) {
    if (ev.kind == EventKind::Send) saw_send = true;
    if (ev.kind == EventKind::Receive) saw_recv = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}

TEST(Engine, TransitiveDerivation) {
  Engine e(ndlog::parse_program(
      "table A/2.\ntable B/2.\ntable C/2.\n"
      "r1 B(@X,V) :- A(@X,V), V > 0.\nr2 C(@X,V) :- B(@X,V), V > 1."));
  e.insert(t("A", {Value(1), Value(5)}));
  EXPECT_TRUE(e.exists(Value(1), "C", {Value(1), Value(5)}));
}

TEST(Engine, DeletionCascades) {
  Engine e(ndlog::parse_program(
      "table A/2.\ntable B/2.\ntable C/2.\n"
      "r1 B(@X,V) :- A(@X,V), V > 0.\nr2 C(@X,V) :- B(@X,V), V > 1."));
  Tuple base = t("A", {Value(1), Value(5)});
  e.insert(base);
  ASSERT_TRUE(e.exists(Value(1), "C", {Value(1), Value(5)}));
  e.remove(base);
  EXPECT_FALSE(e.exists(Value(1), "A", {Value(1), Value(5)}));
  EXPECT_FALSE(e.exists(Value(1), "B", {Value(1), Value(5)}));
  EXPECT_FALSE(e.exists(Value(1), "C", {Value(1), Value(5)}));
}

TEST(Engine, SupportCountsSurviveSingleRetraction) {
  Engine e(ndlog::parse_program(
      "table A/2.\ntable L/2.\ntable B/2.\n"
      "r1 B(@X,V) :- A(@X,V), V > 0.\nr2 B(@X,V) :- L(@X,V), V > 0."));
  e.insert(t("A", {Value(1), Value(4)}));
  e.insert(t("L", {Value(1), Value(4)}));  // second independent derivation
  e.remove(t("A", {Value(1), Value(4)}));
  EXPECT_TRUE(e.exists(Value(1), "B", {Value(1), Value(4)}))
      << "one derivation remains";
  e.remove(t("L", {Value(1), Value(4)}));
  EXPECT_FALSE(e.exists(Value(1), "B", {Value(1), Value(4)}));
}

TEST(Engine, KeyReplacementSemantics) {
  Engine e(ndlog::parse_program("table M/3 keys(0,1)."));
  e.insert(t("M", {Value(1), Value(7), Value(100)}));
  e.insert(t("M", {Value(1), Value(7), Value(200)}));  // displaces
  auto rows = e.rows(Value(1), "M");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], Value(200));
  e.insert(t("M", {Value(1), Value(8), Value(300)}));  // different key
  EXPECT_EQ(e.rows(Value(1), "M").size(), 2u);
}

TEST(Engine, CallbacksFireOnAppearance) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."));
  std::vector<Tuple> seen;
  e.on_appear("A", [&](const Tuple& tup, TagMask) { seen.push_back(tup); });
  e.insert(t("B", {Value(1), Value(5)}));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].row[1], Value(5));
}

TEST(Engine, HistoryRecordsEventTuples) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."));
  e.insert(t("B", {Value(1), Value(5)}));
  e.insert(t("B", {Value(1), Value(5)}));  // duplicate: deduped in history
  e.insert(t("B", {Value(1), Value(6)}));
  EXPECT_EQ(e.history().rows("B").size(), 2u);
  EXPECT_EQ(e.history().rows("A").size(), 2u);
  EXPECT_TRUE(e.history().rows("Zzz").empty());
  EXPECT_EQ(e.history().total(), 4u);

  // Bound-column probe: an index hit that visits only matching tuples, in
  // first-appearance order.
  TuplePattern pat;
  pat.table = "B";
  pat.fields = {{1, ndlog::CmpOp::Eq, Value(5)}};
  std::vector<Tuple> got;
  e.history().probe(pat, [&](TupleRef ref) {
    got.push_back(e.history().materialize(ref));
    return true;
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].row[1], Value(5));
  EXPECT_GT(e.history().index_probes(), 0u);
}

TEST(Engine, ArithmeticAndDivisionByZero) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/3.\nr1 A(@X,P) :- B(@X,Q,R), P := Q / R, Q > 0."));
  e.insert(t("B", {Value(1), Value(10), Value(2)}));
  EXPECT_TRUE(e.exists(Value(1), "A", {Value(1), Value(5)}));
  e.insert(t("B", {Value(1), Value(10), Value(0)}));  // div by zero: no fire
  EXPECT_EQ(e.rows(Value(1), "A").size(), 1u);
}

// Signed int64 overflow is a failed evaluation, like division by zero: the
// rule does not fire (and no undefined behaviour runs, which UBSan checks
// in the sanitizer build). Covers the engine's compiled expressions and
// eval_expr, the repair path's evaluator.
TEST(Engine, ArithmeticOverflowDoesNotFire) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  struct Case {
    char op;
    int64_t p, q;
    bool fits;
  };
  const std::vector<Case> cases = {
      {'+', kMax, 1, false},  {'+', kMin, -1, false}, {'+', kMax, 0, true},
      {'-', kMin, 1, false},  {'-', kMax, -1, false}, {'-', 0, kMax, true},
      {'*', kMax, 2, false},  {'*', kMin, -1, false}, {'*', kMin, 1, true},
      {'/', kMin, -1, false}, {'/', kMin, 1, true},   {'/', kMax, -1, true},
  };
  for (const Case& c : cases) {
    const std::string op(1, c.op);
    SCOPED_TRACE(std::to_string(c.p) + " " + op + " " + std::to_string(c.q));
    const ndlog::Program prog = ndlog::parse_program(
        "table A/2.\nevent B/3.\nr1 A(@X,R) :- B(@X,P,Q), R := P " + op +
        " Q.");
    Engine e(prog);
    e.insert(t("B", {Value(1), Value(c.p), Value(c.q)}));
    EXPECT_EQ(e.rows(Value(1), "A").size(), c.fits ? 1u : 0u);

    const Env env = {{"P", Value(c.p)}, {"Q", Value(c.q)}};
    Value out;
    EXPECT_EQ(eval_expr(*prog.rules[0].assigns[0].expr, env, out), c.fits);
  }
  // The INT64_MIN / -1 program that used to trap with SIGFPE.
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\n"
      "r1 A(@X,Q) :- B(@X,P), M := 0 - 9223372036854775807, N := M - P, "
      "D := 0 - 1, Q := N / D."));
  e.insert(t("B", {Value(1), Value(1)}));
  EXPECT_TRUE(e.rows(Value(1), "A").empty());
}

TEST(Engine, TagModeIntersectsBodyMasks) {
  EngineOptions opt;
  opt.tag_mode = true;
  Engine e(ndlog::parse_program(
               "table A/2.\ntable L/2.\ntable R/2.\n"
               "r1 A(@X,V) :- L(@X,V), R(@X,V), V > 0."),
           opt);
  e.insert(t("L", {Value(1), Value(3)}), 0b011);
  e.insert(t("R", {Value(1), Value(3)}), 0b110);
  EXPECT_EQ(e.tags_of(Value(1), "A", {Value(1), Value(3)}), TagMask{0b010});
}

TEST(Engine, TagModeRuleRestriction) {
  EngineOptions opt;
  opt.tag_mode = true;
  Engine e(ndlog::parse_program(
               "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."),
           opt);
  e.set_rule_restrict("r1", 0b01);
  e.insert(t("B", {Value(1), Value(5)}), 0b11);
  EXPECT_EQ(e.tags_of(Value(1), "A", {Value(1), Value(5)}), TagMask{0b01});
}

TEST(Engine, DivergenceGuardStopsRunaway) {
  EngineOptions opt;
  opt.max_steps = 200;
  // a counting loop: A(x) derives A(x+1) unboundedly.
  Engine e(ndlog::parse_program(
               "table A/2.\nr1 A(@X,Q) :- A(@X,P), Q := P + 1, P < 1000000."),
           opt);
  e.insert(t("A", {Value(1), Value(0)}));
  EXPECT_TRUE(e.diverged());
}

TEST(Engine, AllTuplesSpansNodes) {
  Engine e(ndlog::parse_program("table M/2."));
  e.insert(t("M", {Value(1), Value(10)}));
  e.insert(t("M", {Value(2), Value(20)}));
  EXPECT_EQ(e.all_tuples("M").size(), 2u);
}

TEST(EventLog, ByteEstimateAndDerivationIndex) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."));
  e.insert(t("B", {Value(1), Value(5)}));
  EXPECT_GT(e.log().byte_estimate(), 0u);
  auto derivs = e.log().derivations_of(t("A", {Value(1), Value(5)}));
  ASSERT_EQ(derivs.size(), 1u);
  EXPECT_EQ(e.log().rule_name(e.log().derivations()[derivs[0]].rule), "r1");
  auto using_b = e.log().derivations_using(t("B", {Value(1), Value(5)}));
  EXPECT_EQ(using_b.size(), 1u);
}

// --- compiled plans & column indexes ----------------------------------

// Shared join-heavy program: multi-atom joins, a keyed table (replacement
// semantics) and enough rule depth for retraction cascades.
const char* kJoinProgram =
    "table A/2.\ntable L/3 keys(0,1).\ntable R/3.\ntable Out/4.\n"
    "r1 Out(@X,V,W,U) :- A(@X,V), L(@X,V,W), R(@X,W,U).\n"
    "r2 Out(@X,V,V,V) :- A(@X,V), L(@X,V,V).\n";

void drive_join_workload(Engine& e) {
  for (int i = 0; i < 8; ++i) {
    e.insert(t("L", {Value(1), Value(i), Value(i + 100)}));
    e.insert(t("R", {Value(1), Value(i + 100), Value(i * 2)}));
  }
  for (int i = 0; i < 8; ++i) {
    e.insert(t("A", {Value(1), Value(i)}));
  }
  // Key replacement: displace half the L rows (cascades through r1).
  for (int i = 0; i < 4; ++i) {
    e.insert(t("L", {Value(1), Value(i), Value(i + 200)}));
  }
  // Within-atom duplicate variable for r2.
  e.insert(t("L", {Value(1), Value(7), Value(7)}));
  // Retraction cascade.
  for (int i = 0; i < 3; ++i) {
    e.remove(t("A", {Value(1), Value(i)}));
  }
}

// Canonical snapshot of everything observable: per-table live tuples,
// derivation records, and the (kind, tuple) event sequence.
std::multiset<std::string> table_snapshot(const Engine& e) {
  std::multiset<std::string> out;
  for (const char* table : {"A", "L", "R", "Out"}) {
    for (const Tuple& tup : e.all_tuples(table)) out.insert(tup.to_string());
  }
  return out;
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
  for (const Event& ev : e.log().events()) {
    out.push_back(std::string(to_string(ev.kind)) + " " +
                  e.log().tuple_of(ev).to_string());
  }
  return out;
}

TEST(EnginePlan, IndexedJoinsAvoidFullScans) {
  Engine e(ndlog::parse_program(kJoinProgram));
  drive_join_workload(e);
  // Every non-trigger atom in kJoinProgram has >=1 column bound at join
  // time, so the compiled plans must never fall back to a store scan.
  EXPECT_EQ(e.full_scans(), 0u);
  EXPECT_GT(e.index_probes(), 0u);
  EXPECT_GT(e.rule_firings(), 0u);
  // Spot-check a join result: A(1,5) ⋈ L(1,5,105) ⋈ R(1,105,10).
  EXPECT_TRUE(e.exists(Value(1), "Out",
                       {Value(1), Value(5), Value(105), Value(10)}));
}

TEST(EnginePlan, IndexedAndScanPathsProduceIdenticalDerivations) {
  EngineOptions scan_opt;
  scan_opt.use_indexes = false;
  Engine indexed(ndlog::parse_program(kJoinProgram));
  Engine scanned(ndlog::parse_program(kJoinProgram), scan_opt);
  drive_join_workload(indexed);
  drive_join_workload(scanned);

  EXPECT_GT(indexed.index_probes(), 0u);
  EXPECT_EQ(scanned.index_probes(), 0u);
  EXPECT_GT(scanned.full_scans(), 0u);

  EXPECT_EQ(indexed.rule_firings(), scanned.rule_firings());
  EXPECT_EQ(table_snapshot(indexed), table_snapshot(scanned));
  EXPECT_EQ(derivation_snapshot(indexed), derivation_snapshot(scanned));
  // The workload has at most one match per join step, so even the exact
  // provenance event sequence must agree between the two access paths.
  EXPECT_EQ(event_sequence(indexed), event_sequence(scanned));
}

TEST(EnginePlan, MultiMatchJoinsAgreeAsMultisets) {
  const char* prog =
      "table L/2.\ntable R/2.\ntable Out/3.\n"
      "r1 Out(@X,V,W) :- L(@X,V), R(@X,W).\n";  // cross product per node
  EngineOptions scan_opt;
  scan_opt.use_indexes = false;
  Engine indexed(ndlog::parse_program(prog));
  Engine scanned(ndlog::parse_program(prog), scan_opt);
  for (Engine* e : {&indexed, &scanned}) {
    for (int i = 0; i < 5; ++i) e->insert(t("L", {Value(1), Value(i)}));
    for (int i = 0; i < 5; ++i) e->insert(t("R", {Value(1), Value(10 + i)}));
  }
  EXPECT_EQ(indexed.rule_firings(), scanned.rule_firings());
  EXPECT_EQ(indexed.all_tuples("Out").size(), 25u);
  EXPECT_EQ(derivation_snapshot(indexed), derivation_snapshot(scanned));
  // Match enumeration order may differ (bucket vs. map iteration), so the
  // event streams are compared as multisets here.
  auto iseq = event_sequence(indexed);
  auto sseq = event_sequence(scanned);
  EXPECT_EQ(std::multiset<std::string>(iseq.begin(), iseq.end()),
            std::multiset<std::string>(sseq.begin(), sseq.end()));
}

// --- constant-keyed trigger dispatch ----------------------------------
//
// The default engine visits only the trigger plans whose constant on the
// table's key column matches the appearing row; use_indexes = false
// visits every plan. Trigger-only rules enumerate no join rows (and the
// joins below are single-match), so the two modes must agree on the
// exact event sequence, not only as multisets.

using Tagged = std::vector<std::pair<Tuple, TagMask>>;
using Restricts = std::vector<std::pair<std::string, TagMask>>;

Tagged untagged(std::initializer_list<Tuple> tuples) {
  Tagged out;
  for (const Tuple& tup : tuples) out.emplace_back(tup, kAllTags);
  return out;
}

struct DispatchRun {
  std::vector<std::string> events;
  std::vector<std::string> derive_rules;  // rule of each Derive, in order
  std::multiset<std::string> tagged_rows;
  std::multiset<std::string> derivations;
  size_t firings = 0;
  size_t attempts = 0;
};

DispatchRun run_dispatch(const std::string& prog, const Tagged& input,
                         const EngineOptions& opt, const Restricts& restricts) {
  Engine e(ndlog::parse_program(prog), opt);
  for (const auto& [rule, mask] : restricts) e.set_rule_restrict(rule, mask);
  for (const auto& [tup, tags] : input) e.insert(tup, tags);
  DispatchRun r;
  r.events = event_sequence(e);
  for (const Event& ev : e.log().events()) {
    if (ev.kind == EventKind::Derive) {
      r.derive_rules.push_back(e.log().rule_name(ev.rule));
    }
  }
  for (TableId id = 0; id < e.catalog().size(); ++id) {
    for (const Tuple& tup : e.all_tuples(e.catalog().name_of(id))) {
      r.tagged_rows.insert(
          tup.to_string() + " tags=" +
          std::to_string(e.tags_of(tup.location(), tup.table, tup.row)));
    }
  }
  r.derivations = derivation_snapshot(e);
  r.firings = e.rule_firings();
  r.attempts = e.trigger_attempts();
  return r;
}

// Returns {default run, reference run}.
std::pair<DispatchRun, DispatchRun> expect_dispatch_matches_reference(
    const std::string& prog, const Tagged& input, EngineOptions opt = {},
    const Restricts& restricts = {}) {
  EngineOptions ref_opt = opt;
  ref_opt.use_indexes = false;
  DispatchRun got = run_dispatch(prog, input, opt, restricts);
  DispatchRun want = run_dispatch(prog, input, ref_opt, restricts);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.derive_rules, want.derive_rules);
  EXPECT_EQ(got.tagged_rows, want.tagged_rows);
  EXPECT_EQ(got.derivations, want.derivations);
  EXPECT_EQ(got.firings, want.firings);
  EXPECT_LE(got.attempts, want.attempts);
  return {std::move(got), std::move(want)};
}

TEST(EnginePlan, DispatchKeepsIntAndStrConstantsApart) {
  const char* prog =
      "table A/2.\ntable B/2.\ntable C/2.\nevent T/3.\n"
      "r1 A(@X,Y) :- T(@X,7,Y).\n"
      "r2 B(@X,Y) :- T(@X,\"7\",Y).\n"
      "r3 C(@X,Y) :- T(@X,K,Y), K == 7.\n"
      "r4 C(@X,Y) :- T(@X,K,Y), K == \"7\".\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("T", {Value(1), Value(7), Value(1)}),
                      t("T", {Value(1), Value::str("7"), Value(2)}),
                      t("T", {Value(1), Value(8), Value(3)}),
                      t("T", {Value(1), Value::str("x"), Value(4)})}));
  EXPECT_EQ(got.derive_rules,
            (std::vector<std::string>{"r1", "r3", "r2", "r4"}));
  // Int 7 visits r1 and r3, Str "7" visits r2 and r4, the rest nothing.
  EXPECT_EQ(got.attempts, 4u);
  EXPECT_EQ(want.attempts, 16u);
}

TEST(EnginePlan, DispatchChecksTheColumnsItDoesNotKeyOn) {
  // K and H both hold three constants: the tie goes to K (column 1), so
  // a row with the right K and a wrong H is visited and fails there.
  const char* prog =
      "table A/2.\nevent T/4.\n"
      "r1 A(@X,Y) :- T(@X,K,H,Y), K == 1, H == 80.\n"
      "r2 A(@X,Y) :- T(@X,K,H,Y), K == 1, H == 53.\n"
      "r3 A(@X,Y) :- T(@X,2,H,Y), H == 80.\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("T", {Value(1), Value(1), Value(99), Value(5)}),
                      t("T", {Value(1), Value(1), Value(80), Value(6)}),
                      t("T", {Value(1), Value(2), Value(53), Value(7)})}));
  EXPECT_EQ(got.derive_rules, std::vector<std::string>{"r1"});
  EXPECT_EQ(got.attempts, 5u);
  EXPECT_EQ(want.attempts, 9u);
}

TEST(EnginePlan, DispatchMergesKeyedAndUnkeyedInProgramOrder) {
  const char* prog =
      "table Out/2.\nevent T/2.\n"
      "r1 Out(@X,V) :- T(@X,K), K == 1, V := 1.\n"
      "r2 Out(@X,V) :- T(@X,K), V := 2.\n"
      "r3 Out(@X,V) :- T(@X,1), V := 3.\n"
      "r4 Out(@X,V) :- T(@X,K), K > 0, V := 4.\n"
      "r5 Out(@X,V) :- T(@X,K), K == 2, V := 5.\n"
      "r6 Out(@X,V) :- T(@X,1), V := 6.\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("T", {Value(1), Value(1)}),
                      t("T", {Value(2), Value(2)}),
                      t("T", {Value(3), Value::str("1")})}));
  // Str "1" is no key match for `K == 1` or the literal 1, but strings
  // order after ints, so `K > 0` (r4) holds.
  EXPECT_EQ(got.derive_rules,
            (std::vector<std::string>{"r1", "r2", "r3", "r4", "r6", "r2",
                                      "r4", "r5", "r2", "r4"}));
  EXPECT_LT(got.attempts, want.attempts);
}

TEST(EnginePlan, DispatchKeysEachBodyAtomOfOneRule) {
  // r1 has L in two body atoms, keyed under different constants.
  const char* prog =
      "table L/3.\ntable Out/3.\n"
      "r1 Out(@X,A,B) :- L(@X,A,1), L(@X,B,2).\n"
      "r2 Out(@X,A,A) :- L(@X,A,K), K == 3.\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("L", {Value(1), Value(5), Value(1)}),
                      t("L", {Value(1), Value(6), Value(2)}),
                      t("L", {Value(1), Value(7), Value(3)}),
                      t("L", {Value(1), Value(8), Value(4)})}));
  EXPECT_EQ(got.derive_rules, (std::vector<std::string>{"r1", "r2"}));
  EXPECT_EQ(got.attempts, 3u);
  EXPECT_EQ(want.attempts, 12u);
}

TEST(EnginePlan, DispatchOfARowShorterThanTheKeyColumn) {
  // T rows of two columns cannot reach the key column 2: only the
  // unkeyed plan (a two-column atom) is visited, and it fires.
  const char* prog =
      "table Out/2.\nevent T/3.\n"
      "r1 Out(@X,Y) :- T(@X,Y,5).\n"
      "r2 Out(@X,Y) :- T(@X,Y,6).\n"
      "r3 Out(@X,Y) :- T(@X,Y).\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("T", {Value(1), Value(4)}),
                      t("T", {Value(1), Value(2), Value(5)}),
                      t("T", {Value(1)})}));
  EXPECT_EQ(got.derive_rules, (std::vector<std::string>{"r3", "r1"}));
  EXPECT_EQ(got.attempts, 1u + 2u + 1u);
  EXPECT_EQ(want.attempts, 9u);
}

TEST(EnginePlan, DispatchSkipsDeadPlans) {
  // A body with two different event tables can never fire: r1 and r3
  // are dead from both triggers (r1 with a constant on the key column).
  const char* prog =
      "table Out/2.\nevent T/3.\nevent U/2.\n"
      "r1 Out(@X,Y) :- T(@X,Y,5), U(@X,Y).\n"
      "r2 Out(@X,Y) :- T(@X,Y,5).\n"
      "r3 Out(@X,Y) :- T(@X,Y,K), U(@X,K).\n"
      "r4 Out(@X,Y) :- T(@X,Y,6).\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("T", {Value(1), Value(1), Value(5)}),
                      t("T", {Value(1), Value(2), Value(6)}),
                      t("T", {Value(1), Value(3), Value(7)}),
                      t("U", {Value(1), Value(1)})}));
  EXPECT_EQ(got.derive_rules, (std::vector<std::string>{"r2", "r4"}));
  EXPECT_LT(got.attempts, want.attempts);
}

TEST(EnginePlan, DispatchKeysLiteralAndFoldedConstantsAlike) {
  // Column 1 holds a literal 7 (r1), folded `K == 7` (r2, r3, r4, twice
  // in r4, which can never fire) and a literal 8 (r5).
  const char* prog =
      "table Out/2.\nevent T/4.\n"
      "r1 Out(@X,Y) :- T(@X,7,K,Y), K == 3.\n"
      "r2 Out(@X,Y) :- T(@X,K,3,Y), K == 7.\n"
      "r3 Out(@X,Y) :- T(@X,K,H,Y), K == 7, H == 4.\n"
      "r4 Out(@X,Y) :- T(@X,K,H,Y), K == 7, K == 8.\n"
      "r5 Out(@X,Y) :- T(@X,8,H,Y), H == 3.\n";
  const auto [got, want] = expect_dispatch_matches_reference(
      prog, untagged({t("T", {Value(1), Value(7), Value(3), Value(1)}),
                      t("T", {Value(1), Value(7), Value(4), Value(2)}),
                      t("T", {Value(1), Value(8), Value(3), Value(3)}),
                      t("T", {Value(1), Value(9), Value(3), Value(4)})}));
  EXPECT_EQ(got.derive_rules,
            (std::vector<std::string>{"r1", "r2", "r3", "r5"}));
  EXPECT_LT(got.attempts, want.attempts);
}

TEST(EnginePlan, DispatchAppliesRuleRestrictInTagMode) {
  const char* prog =
      "table A/2.\ntable B/2.\nevent T/3.\n"
      "r1 A(@X,Y) :- T(@X,K,Y), K == 1.\n"
      "r2 B(@X,Y) :- T(@X,K,Y), K == 1.\n"
      "r3 A(@X,Y) :- T(@X,2,Y).\n"
      "r4 B(@X,Y) :- T(@X,K,Y).\n";
  EngineOptions opt;
  opt.tag_mode = true;
  const Restricts restricts = {
      {"r1", 0b001}, {"r2", 0b010}, {"r3", 0b100}, {"r4", 0b011}};
  const Tagged input = {
      {t("T", {Value(1), Value(1), Value(1)}), 0b111},
      {t("T", {Value(1), Value(1), Value(2)}), 0b001},
      {t("T", {Value(1), Value(2), Value(3)}), 0b110},
      {t("T", {Value(1), Value(2), Value(4)}), 0b011},
      {t("T", {Value(1), Value(1), Value(1)}), 0b100},
  };
  const auto [got, want] =
      expect_dispatch_matches_reference(prog, input, opt, restricts);
  EXPECT_EQ(got.derive_rules,
            (std::vector<std::string>{"r1", "r2", "r4", "r1", "r4", "r3",
                                      "r4", "r4"}));
  EXPECT_LT(got.attempts, want.attempts);
}

// Seeded generator: random trigger-only programs over an event table T
// and a stored table M (T rules may derive M, M rules derive Out), with
// literal constants, folded and unfolded selections, repeated
// variables, Int/Str look-alike constants, rows of the wrong length, and
// tag mode with rule restrictions on every third seed.
std::string random_const(Rng& rng) {
  static const char* kConsts[] = {"1", "2", "3", "\"1\""};
  return kConsts[rng.below(4)];
}

Value random_value(Rng& rng) {
  switch (rng.below(5)) {
    case 0: return Value(1);
    case 1: return Value(2);
    case 2: return Value(3);
    case 3: return Value::str("1");
    default: return Value(4);
  }
}

std::string random_program(Rng& rng, size_t nrules,
                           std::vector<std::string>& rules) {
  std::string prog = "table Out/3.\ntable M/3.\nevent T/4.\n";
  for (size_t r = 0; r < nrules; ++r) {
    const bool on_t = rng.below(4) != 0;
    const size_t arity = on_t ? 4 : 3;
    std::vector<std::string> args = {"@X"};
    std::vector<std::string> vars;
    std::string sels;
    for (size_t c = 1; c < arity; ++c) {
      const uint64_t roll = rng.below(10);
      if (roll < 3) {
        args.push_back(random_const(rng));
      } else if (roll < 4 && !vars.empty()) {
        args.push_back(vars[rng.below(vars.size())]);
      } else {
        const std::string v = "V" + std::to_string(c);
        args.push_back(v);
        vars.push_back(v);
        const uint64_t sel = rng.below(20);
        if (sel < 7) {
          sels += ", " + v + " == " + random_const(rng);
        } else if (sel < 9) {
          sels += ", " + random_const(rng) + " == " + v;
        } else if (sel < 11) {
          sels += ", " + v + " != " + random_const(rng);
        } else if (sel < 12) {
          sels += ", " + v + " > 1";
        }
      }
    }
    const std::string name = "r" + std::to_string(r);
    rules.push_back(name);
    const std::string w = vars.empty() ? "0" : vars[rng.below(vars.size())];
    const std::string head =
        on_t && rng.below(3) == 0 ? "M(@X,R," + w + ")" : "Out(@X,R," + w + ")";
    std::string body = on_t ? "T(" : "M(";
    for (size_t i = 0; i < args.size(); ++i) {
      body += (i ? "," : "") + args[i];
    }
    prog += name + " " + head + " :- " + body + ")" + sels +
            ", R := " + std::to_string(r) + ".\n";
  }
  return prog;
}

TEST(EnginePlan, DispatchMatchesReferenceOnGeneratedPrograms) {
  size_t got_attempts = 0;
  size_t want_attempts = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::string> rules;
    const std::string prog = random_program(rng, 3 + rng.below(10), rules);
    SCOPED_TRACE(prog);
    EngineOptions opt;
    Restricts restricts;
    if (seed % 3 == 0) {
      opt.tag_mode = true;
      for (const std::string& rule : rules) {
        if (rng.below(2) == 0) restricts.emplace_back(rule, rng.below(8));
      }
    }
    Tagged input;
    const size_t n = 10 + rng.below(30);
    for (size_t i = 0; i < n; ++i) {
      const bool on_t = rng.below(4) != 0;
      size_t len = on_t ? 4 : 3;
      if (rng.below(10) == 0) len = 1 + rng.below(5);  // wrong length
      Row row = {Value(static_cast<int64_t>(1 + rng.below(2)))};
      while (row.size() < len) row.push_back(random_value(rng));
      input.emplace_back(Tuple{on_t ? "T" : "M", std::move(row)},
                         opt.tag_mode ? 1 + rng.below(7) : kAllTags);
    }
    const auto [got, want] =
        expect_dispatch_matches_reference(prog, input, opt, restricts);
    got_attempts += got.attempts;
    want_attempts += want.attempts;
  }
  // The generated guards are selective enough that the index must skip.
  EXPECT_LT(got_attempts * 2, want_attempts);
}

TEST(EnginePlan, RuleRestrictAppliesToAllRulesSharingAName) {
  EngineOptions opt;
  opt.tag_mode = true;
  // Duplicate rule names are invalid programs but candidate generation can
  // produce them; the restriction must mask every rule with the name, also
  // with another rule between them. An unknown name changes nothing.
  Engine e(ndlog::parse_program(
               "table A/2.\ntable B/2.\ntable C/2.\nevent T/2.\n"
               "r1 A(@X,Q) :- T(@X,Q).\nr2 C(@X,Q) :- T(@X,Q).\n"
               "r1 B(@X,Q) :- T(@X,Q).\n"),
           opt);
  e.set_rule_restrict("r1", 0);
  e.set_rule_restrict("r2", 0b10);
  e.set_rule_restrict("r3", 0);
  e.insert(t("T", {Value(1), Value(5)}), 0b11);
  EXPECT_TRUE(e.rows(Value(1), "A").empty());
  EXPECT_TRUE(e.rows(Value(1), "B").empty());
  EXPECT_EQ(e.tags_of(Value(1), "C", {Value(1), Value(5)}), TagMask{0b10});
}

TEST(EnginePlan, RemoveOfAbsentTableDoesNotCreateStore) {
  Engine e(ndlog::parse_program("table A/2.\ntable B/2."));
  e.insert(t("A", {Value(1), Value(5)}));
  e.remove(t("B", {Value(1), Value(5)}));     // no B store at node 1
  e.remove(t("Zzz", {Value(1), Value(5)}));   // unknown table entirely
  const Database* db = e.db(Value(1));
  ASSERT_NE(db, nullptr);
  EXPECT_NE(db->table("A"), nullptr);
  EXPECT_EQ(db->table("B"), nullptr) << "remove() must not materialize stores";
  EXPECT_TRUE(e.exists(Value(1), "A", {Value(1), Value(5)}));
}

// --- provenance -------------------------------------------------------

TEST(Provenance, PositiveTreeReachesBaseTuples) {
  Engine e(ndlog::parse_program(
      "table A/2.\ntable B/2.\ntable C/2.\n"
      "r1 B(@X,V) :- A(@X,V), V > 0.\nr2 C(@X,V) :- B(@X,V), V > 1."));
  e.insert(t("A", {Value(1), Value(5)}));
  auto g = prov::explain_exists(e, t("C", {Value(1), Value(5)}));
  ASSERT_GT(g.size(), 1u);
  bool found_insert = false;
  for (size_t i = 0; i < g.size(); ++i) {
    if (g.at(i).kind == prov::VertexKind::Insert &&
        g.at(i).tuple.table == "A") {
      found_insert = true;
    }
  }
  EXPECT_TRUE(found_insert);
  EXPECT_FALSE(g.to_string().empty());
  EXPECT_FALSE(g.leaves().empty());
}

TEST(Provenance, NegativeTreeShowsFailedRules) {
  Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 10."));
  e.insert(t("B", {Value(1), Value(5)}));  // selection fails
  prov::TuplePattern pat;
  pat.table = "A";
  pat.fields = {{1, ndlog::CmpOp::Eq, Value(5)}};
  auto g = prov::explain_missing(e, pat);
  ASSERT_GE(g.size(), 2u);
  EXPECT_EQ(g.root().kind, prov::VertexKind::NExist);
  bool has_nderive = false;
  for (size_t i = 0; i < g.size(); ++i) {
    if (g.at(i).kind == prov::VertexKind::NDerive) has_nderive = true;
  }
  EXPECT_TRUE(has_nderive);
}

TEST(Provenance, PatternMatching) {
  prov::TuplePattern pat;
  pat.table = "T";
  pat.fields = {{0, ndlog::CmpOp::Eq, Value(3)},
                {1, ndlog::CmpOp::Gt, Value(10)}};
  EXPECT_TRUE(pat.matches({Value(3), Value(11)}));
  EXPECT_FALSE(pat.matches({Value(3), Value(10)}));
  EXPECT_FALSE(pat.matches({Value(4), Value(11)}));
  EXPECT_FALSE(pat.matches({Value(3)}));  // out of range column
  EXPECT_FALSE(pat.to_string().empty());
}

}  // namespace
}  // namespace mp::eval
