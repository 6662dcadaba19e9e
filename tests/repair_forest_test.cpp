// The repair generator (repair/generator.h), driven through its one entry
// point, RepairGenerator::generate.
//
// Regression tests for its symbolic re-execution: the generator
// reconstructs a variable environment from DerivRecord.body and relies on
// the engine's guarantee (since the compiled-plan change) that rec.body[i]
// is aligned with rule.body[i] *regardless of which atom triggered the
// firing*. A join-ordered record — what the engine produced before that
// change — unifies the wrong tuples against the wrong atoms and silently
// degrades every positive-symptom repair to rule deletion. Then the fork
// rule for unwanted tuples (every child kills every derivation) and the
// generator pin over the benchmark workloads' symptoms. Labelled `oracle`
// as well as `tier1`: tools/check.sh runs that label explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "e2ebench/workloads.h"
#include "eval/engine.h"
#include "ndlog/parser.h"
#include "repair/generator.h"
#include "tests/test_util.h"

namespace mp::repair {
namespace {

eval::Tuple t(const std::string& table, std::initializer_list<Value> vals) {
  return eval::Tuple{table, Row(vals)};
}

// Insert order chooses the trigger atom: inserting Mid last makes the
// firing's trigger the *second* body atom, so join order (trigger first)
// and body order disagree — exactly the case the alignment guarantee is
// about.
const char* kProgram =
    "table Base/2.\ntable Mid/3.\ntable Bad/3.\n"
    "r1 Bad(@X,V,W) :- Base(@X,V), Mid(@X,V,W), W > 5.\n";

TEST(ForestRegression, DerivRecordBodyIsInRuleBodyOrder) {
  eval::Engine e(ndlog::parse_program(kProgram));
  e.insert(t("Base", {Value(1), Value(4)}));
  e.insert(t("Mid", {Value(1), Value(4), Value(9)}));  // trigger = body[1]
  ASSERT_TRUE(e.exists(Value(1), "Bad", {Value(1), Value(4), Value(9)}));

  const auto derivs =
      e.log().derivations_of(t("Bad", {Value(1), Value(4), Value(9)}));
  ASSERT_EQ(derivs.size(), 1u);
  const eval::DerivRecord& rec = e.log().derivations()[derivs[0]];
  const auto body = e.log().body_of(rec);
  ASSERT_EQ(body.size(), 2u);
  EXPECT_EQ(e.log().table_name(body[0]), "Base");
  EXPECT_EQ(e.log().table_name(body[1]), "Mid");
}

// With a correctly aligned record the generator can re-execute the rule
// symbolically and propose *selection* edits for an unwanted tuple; if the
// environment reconstruction failed it could only offer structural
// repairs (delete the rule / delete a base tuple).
TEST(ForestRegression, UnwantedTupleYieldsSelectionEditsAfterLateTrigger) {
  eval::Engine e(ndlog::parse_program(kProgram));
  e.insert(t("Base", {Value(1), Value(4)}));
  e.insert(t("Mid", {Value(1), Value(4), Value(9)}));

  Symptom sym;
  sym.polarity = Symptom::Polarity::Unwanted;
  sym.pattern.table = "Bad";
  sym.pattern.fields = {{2, ndlog::CmpOp::Eq, Value(9)}};
  const auto cands =
      RepairGenerator(e, RepairSpaceConfig{}).generate(sym).candidates;
  ASSERT_FALSE(cands.empty());

  bool saw_selection_edit = false;
  bool saw_rule_delete = false;
  for (const RepairCandidate& c : cands) {
    for (const Change& ch : c.changes) {
      if (ch.rule == "r1" && (ch.kind == ChangeKind::ChangeSelOp ||
                              ch.kind == ChangeKind::ChangeSelConst)) {
        saw_selection_edit = true;
      }
      if (ch.kind == ChangeKind::DeleteRule) saw_rule_delete = true;
    }
  }
  EXPECT_TRUE(saw_selection_edit)
      << "environment reconstruction failed: only structural repairs left";
  EXPECT_TRUE(saw_rule_delete);
}

// Same program driven in the opposite order (trigger = body[0]) must give
// the generator the same repair options: alignment is order-independent.
TEST(ForestRegression, SelectionEditsIndependentOfTriggerAtom) {
  auto explore_with_order = [](bool mid_first) {
    eval::Engine e(ndlog::parse_program(kProgram));
    if (mid_first) {
      e.insert(t("Mid", {Value(1), Value(4), Value(9)}));
      e.insert(t("Base", {Value(1), Value(4)}));
    } else {
      e.insert(t("Base", {Value(1), Value(4)}));
      e.insert(t("Mid", {Value(1), Value(4), Value(9)}));
    }
    Symptom sym;
    sym.polarity = Symptom::Polarity::Unwanted;
    sym.pattern.table = "Bad";
    sym.pattern.fields = {{2, ndlog::CmpOp::Eq, Value(9)}};
    std::multiset<std::string> descriptions;
    for (const RepairCandidate& c :
         RepairGenerator(e, RepairSpaceConfig{}).generate(sym).candidates) {
      descriptions.insert(c.description);
    }
    return descriptions;
  };
  const auto trigger_first = explore_with_order(true);
  const auto trigger_second = explore_with_order(false);
  EXPECT_FALSE(trigger_first.empty());
  EXPECT_EQ(trigger_first, trigger_second);
}

// Assignments re-execute on top of the reconstructed environment; a head
// value computed from the second (trigger) atom's variables must survive
// the round trip through the derivation record.
TEST(ForestRegression, AssignmentReExecutionUsesAlignedEnvironment) {
  eval::Engine e(ndlog::parse_program(
      "table Base/2.\ntable Mid/3.\ntable Bad/2.\n"
      "r1 Bad(@X,P) :- Base(@X,V), Mid(@X,V,W), P := W * 2, W > 2.\n"));
  e.insert(t("Base", {Value(1), Value(4)}));
  e.insert(t("Mid", {Value(1), Value(4), Value(9)}));  // trigger = body[1]
  ASSERT_TRUE(e.exists(Value(1), "Bad", {Value(1), Value(18)}));

  Symptom sym;
  sym.polarity = Symptom::Polarity::Unwanted;
  sym.pattern.table = "Bad";
  sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(18)}};
  bool saw_selection_edit = false;
  for (const RepairCandidate& c :
       RepairGenerator(e, RepairSpaceConfig{}).generate(sym).candidates) {
    for (const Change& ch : c.changes) {
      if (ch.rule == "r1" && (ch.kind == ChangeKind::ChangeSelOp ||
                              ch.kind == ChangeKind::ChangeSelConst)) {
        saw_selection_edit = true;
      }
    }
  }
  // W > 2 can only be proposed for breaking if W was reconstructed as 9
  // through the Mid atom at body position 1.
  EXPECT_TRUE(saw_selection_edit);
}

// Selections whose observed value sits at an int64 limit (history values
// come from traffic). A constant that would leave int64 is not proposed,
// and every proposed constant gives the selection the verdict the symptom
// needs on the observed value: true for a missing tuple, false for an
// unwanted one.
TEST(ForestRegression, ConstantsAtInt64LimitsStayInRange) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  struct Case {
    const char* op;
    ndlog::CmpOp cmp;
    int64_t w;
    Symptom::Polarity polarity;
    bool want_const;  // a constant edit exists and must be proposed
  };
  const Case cases[] = {
      {">=", ndlog::CmpOp::Ge, kMax, Symptom::Polarity::Unwanted, false},
      {">=", ndlog::CmpOp::Ge, kMax, Symptom::Polarity::Missing, false},
      {">=", ndlog::CmpOp::Ge, kMin, Symptom::Polarity::Missing, true},
      {"<=", ndlog::CmpOp::Le, kMin, Symptom::Polarity::Unwanted, false},
      {"<", ndlog::CmpOp::Lt, kMax, Symptom::Polarity::Missing, false},
      {">", ndlog::CmpOp::Gt, kMin, Symptom::Polarity::Missing, false},
  };
  for (const Case& c : cases) {
    const bool missing = c.polarity == Symptom::Polarity::Missing;
    const std::string where = std::string("W ") + c.op + " 5 at " +
                              std::to_string(c.w) +
                              (missing ? ", missing" : ", unwanted");
    eval::Engine e(ndlog::parse_program(
        std::string("table Base/2.\ntable Bad/2.\n"
                    "r1 Bad(@X,W) :- Base(@X,W), W ") +
        c.op + " 5.\n"));
    e.insert(t("Base", {Value(1), Value(c.w)}));
    Symptom sym;
    sym.polarity = c.polarity;
    sym.pattern.table = "Bad";
    sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(c.w)}};
    size_t const_edits = 0;
    for (const RepairCandidate& cand :
         RepairGenerator(e, RepairSpaceConfig{}).generate(sym).candidates) {
      for (const Change& ch : cand.changes) {
        if (ch.kind != ChangeKind::ChangeSelConst) continue;
        ++const_edits;
        EXPECT_EQ(ndlog::cmp_eval(c.cmp, Value(c.w), ch.new_value), missing)
            << where << ": " << cand.description;
      }
    }
    if (c.want_const) {
      EXPECT_GT(const_edits, 0u) << where;
    }
  }
}

// An unwanted tuple derived twice through one selection: `Y >= 5` fires
// for Y = 5 and for Y = 7. Every child tree must kill both derivations, so
// two different edits of that selection (one per derivation) do not
// combine: applied together they compose into an edit that may keep one
// derivation alive. One edit that kills both (`Y < 5`) may come from
// either derivation. Every candidate, applied and re-run on the same base
// tuples (minus the ones it deletes), must leave the tuple underived.
TEST(ForestRegression, UnwantedTupleCandidatesKillEveryDerivation) {
  const char* program =
      "table In/3.\ntable Out/2.\n"
      "r1 Out(@C,X) :- In(@C,X,Y), Y >= 5.\n";
  const std::vector<eval::Tuple> base = {
      t("In", {Value::str("c"), Value(1), Value(5)}),
      t("In", {Value::str("c"), Value(1), Value(7)})};
  const Row unwanted = {Value::str("c"), Value(1)};
  eval::Engine e(ndlog::parse_program(program));
  for (const eval::Tuple& b : base) e.insert(b);
  ASSERT_TRUE(e.exists(Value::str("c"), "Out", unwanted));

  Symptom sym;
  sym.polarity = Symptom::Polarity::Unwanted;
  sym.pattern.table = "Out";
  sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(1)}};
  const std::vector<RepairCandidate> cands =
      RepairGenerator(e, RepairSpaceConfig{}).generate(sym).candidates;
  ASSERT_FALSE(cands.empty());
  size_t killing = 0;
  for (const RepairCandidate& c : cands) {
    const auto repaired = apply_candidate(e.program(), c);
    ASSERT_TRUE(repaired.has_value()) << c.description;
    eval::Engine e2(*repaired);
    const std::vector<eval::Tuple> deleted = candidate_deletions(c);
    for (const eval::Tuple& b : base) {
      if (std::find(deleted.begin(), deleted.end(), b) == deleted.end()) {
        e2.insert(b);
      }
    }
    for (const eval::Tuple& ins : candidate_insertions(c)) e2.insert(ins);
    const bool alive = e2.exists(Value::str("c"), "Out", unwanted);
    EXPECT_FALSE(alive) << c.description << " leaves Out(c,1) derived";
    if (!alive) ++killing;
  }
  EXPECT_EQ(killing, cands.size());
}

// The generator pin: RepairGenerator::generate's full output (every
// candidate's cost and description, in order, before any pipeline
// truncation) and its exploration counters, for every symptom of Q1-Q5 on
// the default campus and of Q1 as the campus169 and program900 benchmark
// workloads build it, at workload seeds 0 and 21. A change to the repair
// generator that is meant to keep its output must leave every row as it
// is; on a mismatch the test prints the rows it computed.
struct GeneratorPin {
  std::string where;          // workload/scenario#symptom@seed
  uint64_t fingerprint = 0;   // FNV-1a over the "cost description" lines
  size_t candidates = 0;
  size_t trees_forked = 0;
  size_t goals_expanded = 0;
  size_t history_tuples_scanned = 0;
  size_t solver_calls = 0;

  bool operator==(const GeneratorPin&) const = default;
};

std::string pin_line(const GeneratorPin& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", 0x%016" PRIx64 "ull, %zu, %zu, %zu, %zu, %zu},",
                p.where.c_str(), p.fingerprint, p.candidates, p.trees_forked,
                p.goals_expanded, p.history_tuples_scanned, p.solver_calls);
  return buf;
}

std::vector<GeneratorPin> generator_pins() {
  const std::vector<std::pair<std::string, std::vector<std::string>>> runs = {
      {"paper5", {"Q1", "Q2", "Q3", "Q4", "Q5"}},
      {"campus169", {"Q1"}},
      {"program900", {"Q1"}}};
  std::vector<GeneratorPin> out;
  for (const uint64_t seed : {0u, 21u}) {
    for (const auto& [name, ids] : runs) {
      const e2e::Workload& w = e2e::find_workload(name);
      for (const std::string& id : ids) {
        const scenario::Scenario s = e2e::make_scenario(w, id, seed);
        scenario::ScenarioHarness h(s);
        const eval::Engine& engine = h.buggy_run().engine();
        const RepairGenerator generator(engine, s.space);
        for (size_t i = 0; i < s.symptoms.size(); ++i) {
          const GenerationReport rep = generator.generate(s.symptoms[i]);
          GeneratorPin pin;
          pin.where = name + "/" + id + "#" + std::to_string(i) + "@" +
                      std::to_string(seed);
          pin.fingerprint = 1469598103934665603ull;
          for (const RepairCandidate& c : rep.candidates) {
            char cost[32];
            std::snprintf(cost, sizeof cost, "%.17g ", c.cost);
            pin.fingerprint =
                testutil::fnv1a(pin.fingerprint, cost + c.description + "\n");
          }
          pin.candidates = rep.candidates.size();
          pin.trees_forked = rep.stats.trees_forked;
          pin.goals_expanded = rep.stats.goals_expanded;
          pin.history_tuples_scanned = rep.stats.history_tuples_scanned;
          pin.solver_calls = rep.stats.solver.calls;
          out.push_back(std::move(pin));
        }
      }
    }
  }
  return out;
}

TEST(GeneratorPin, OutputAndCountersOfEveryBenchmarkSymptom) {
  // {where, fingerprint, candidates, trees_forked, goals_expanded,
  //  history_tuples_scanned, solver_calls}
  const std::vector<GeneratorPin> want = {
      {"paper5/Q1#0@0", 0xe97eb44b46391f01ull, 32, 323, 1, 4669, 197},
      {"paper5/Q2#0@0", 0xeae789549bdc3993ull, 32, 58, 1, 1248, 47},
      {"paper5/Q3#0@0", 0xd004a09d6f2df277ull, 32, 115, 1, 12031, 224},
      {"paper5/Q4#0@0", 0xdcbdd11d81926ad6ull, 13, 13, 1, 0, 1},
      {"paper5/Q5#0@0", 0xb1c48d585075bc3eull, 1, 1, 1, 3465, 33},
      {"paper5/Q5#1@0", 0xc3892271be88e544ull, 8, 305, 60, 3398, 31},
      {"campus169/Q1#0@0", 0xe97eb44b46391f01ull, 32, 323, 1, 1890, 120},
      {"program900/Q1#0@0", 0xe97eb44b46391f01ull, 32, 323, 1, 4669, 197},
      {"paper5/Q1#0@21", 0xe97eb44b46391f01ull, 32, 323, 1, 4669, 197},
      {"paper5/Q2#0@21", 0x4137d0b132cfbeaaull, 32, 58, 1, 1100, 43},
      {"paper5/Q3#0@21", 0xd004a09d6f2df277ull, 32, 115, 1, 13737, 238},
      {"paper5/Q4#0@21", 0xdcbdd11d81926ad6ull, 13, 13, 1, 0, 1},
      {"paper5/Q5#0@21", 0xb1c48d585075bc3eull, 1, 1, 1, 3636, 36},
      {"paper5/Q5#1@21", 0xc3892271be88e544ull, 8, 315, 62, 3269, 31},
      {"campus169/Q1#0@21", 0xe97eb44b46391f01ull, 32, 323, 1, 2160, 129},
      {"program900/Q1#0@21", 0xe97eb44b46391f01ull, 32, 323, 1, 4669, 197},
  };
  const std::vector<GeneratorPin> got = generator_pins();
  if (got != want) {
    std::string rows;
    for (const GeneratorPin& p : got) rows += "      " + pin_line(p) + "\n";
    ADD_FAILURE() << "generator output or counters moved; computed rows:\n"
                  << rows;
  }
}

}  // namespace
}  // namespace mp::repair
