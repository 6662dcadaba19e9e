// Regression tests for repair/forest.cpp's symbolic re-execution. The
// explorer reconstructs a variable environment from DerivRecord.body and
// relies on the engine's guarantee (since the compiled-plan change) that
// rec.body[i] is aligned with rule.body[i] *regardless of which atom
// triggered the firing*. A join-ordered record — what the engine produced
// before that change — unifies the wrong tuples against the wrong atoms
// and silently degrades every positive-symptom repair to rule deletion.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "eval/engine.h"
#include "ndlog/parser.h"
#include "repair/generator.h"

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

// With a correctly aligned record the explorer can re-execute the rule
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
  ForestExplorer explorer(e, RepairSpaceConfig{});
  const auto cands = explorer.explore(sym);
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
// the explorer the same repair options: alignment is order-independent.
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
    ForestExplorer explorer(e, RepairSpaceConfig{});
    std::multiset<std::string> descriptions;
    for (const RepairCandidate& c : explorer.explore(sym)) {
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
  ForestExplorer explorer(e, RepairSpaceConfig{});
  bool saw_selection_edit = false;
  for (const RepairCandidate& c : explorer.explore(sym)) {
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
    ForestExplorer explorer(e, RepairSpaceConfig{});
    size_t const_edits = 0;
    for (const RepairCandidate& cand : explorer.explore(sym)) {
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

}  // namespace
}  // namespace mp::repair
