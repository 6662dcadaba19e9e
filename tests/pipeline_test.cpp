// End-to-end tests: the change algebra, the repair generator on small
// programs, the language frontends, and the five paper scenarios run
// through the full pipeline (generation + multi-query backtesting).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "e2ebench/workloads.h"
#include "langs/imp/imp.h"
#include "langs/netcore/netcore.h"
#include "ndlog/parser.h"
#include "ndlog/validate.h"
#include "repair/generator.h"
#include "scenarios/pipeline.h"
#include "tests/memo_reference.h"

namespace mp {
namespace {

using repair::Change;
using repair::ChangeKind;
using repair::RepairCandidate;

ndlog::Program tiny() {
  return ndlog::parse_program(
      "table A/3.\nevent B/3.\n"
      "r1 A(@X,P,Q) :- B(@X,P,V), P == 2, V != 3, Q := 7.");
}

TEST(Change, ApplyConstAndOperator) {
  auto p = tiny();
  Change c;
  c.kind = ChangeKind::ChangeSelConst;
  c.rule = "r1";
  c.index = 0;
  c.side = 1;
  c.new_value = Value(5);
  ASSERT_TRUE(c.apply(p));
  EXPECT_NE(p.find_rule("r1")->to_string().find("P == 5"), std::string::npos);
  Change op;
  op.kind = ChangeKind::ChangeSelOp;
  op.rule = "r1";
  op.index = 1;
  op.new_op = ndlog::CmpOp::Lt;
  ASSERT_TRUE(op.apply(p));
  EXPECT_NE(p.find_rule("r1")->to_string().find("V < 3"), std::string::npos);
}

TEST(Change, DeleteSelAndGuards) {
  auto p = tiny();
  Change del;
  del.kind = ChangeKind::DeleteSel;
  del.rule = "r1";
  del.index = 0;
  ASSERT_TRUE(del.apply(p));
  EXPECT_EQ(p.find_rule("r1")->sels.size(), 1u);
  Change bad;
  bad.kind = ChangeKind::DeleteSel;
  bad.rule = "r1";
  bad.index = 9;
  EXPECT_FALSE(bad.apply(p));
  Change atom;
  atom.kind = ChangeKind::DeleteBodyAtom;
  atom.rule = "r1";
  atom.index = 0;
  EXPECT_FALSE(atom.apply(p)) << "a rule must keep at least one body atom";
}

TEST(Change, AssignRewrites) {
  auto p = tiny();
  Change c;
  c.kind = ChangeKind::ChangeAssignConst;
  c.rule = "r1";
  c.index = 0;
  c.new_value = Value(9);
  ASSERT_TRUE(c.apply(p));
  Change v;
  v.kind = ChangeKind::ChangeAssignVar;
  v.rule = "r1";
  v.index = 0;
  v.new_value = Value::str("V");
  ASSERT_TRUE(v.apply(p));
  EXPECT_NE(p.find_rule("r1")->to_string().find("Q := V"), std::string::npos);
}

TEST(Change, CopyRetargetValidatesArity) {
  auto p = ndlog::parse_program(
      "table A/3.\ntable T/3.\ntable W/2.\nevent B/3.\n"
      "r1 A(@X,P,V) :- B(@X,P,V), P == 2.");
  Change good;
  good.kind = ChangeKind::CopyRuleRetarget;
  good.rule = "r1";
  good.new_head_table = "T";
  ASSERT_TRUE(good.apply(p));
  EXPECT_EQ(p.rules.size(), 2u);
  EXPECT_TRUE(ndlog::is_valid(p));
  Change bad;
  bad.kind = ChangeKind::CopyRuleRetarget;
  bad.rule = "r1";
  bad.new_head_table = "W";  // arity mismatch, no permutation
  EXPECT_FALSE(bad.apply(p));
}

TEST(Change, ApplyCandidateRejectsInvalid) {
  auto p = tiny();
  RepairCandidate c;
  Change ch;
  ch.kind = ChangeKind::ChangeSelConst;
  ch.rule = "missing-rule";
  c.changes.push_back(ch);
  EXPECT_FALSE(repair::apply_candidate(p, c).has_value());
}

TEST(CostModel, OrdersPlausibility) {
  const auto& m = repair::default_cost_model();
  auto p = tiny();
  Change near;
  near.kind = ChangeKind::ChangeSelConst;
  near.rule = "r1";
  near.index = 0;
  near.side = 1;
  near.new_value = Value(3);  // 2 -> 3: off-by-one
  Change far = near;
  far.new_value = Value(99);
  Change del;
  del.kind = ChangeKind::DeleteSel;
  Change rule_del;
  rule_del.kind = ChangeKind::DeleteRule;
  EXPECT_LT(m.cost(near, p), m.cost(far, p));
  EXPECT_LT(m.cost(far, p), m.cost(del, p));
  EXPECT_LT(m.cost(del, p), m.cost(rule_del, p));
}

// --- repair generator on a micro program --------------------------------

TEST(Forest, MissingTupleYieldsConstOpDeleteRepairs) {
  eval::Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q == 2."));
  e.insert(eval::Tuple{"B", {Value(1), Value(7)}});
  repair::Symptom sym;
  sym.pattern.table = "A";
  sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(7)}};
  repair::RepairSpaceConfig cfg;
  auto cands = repair::RepairGenerator(e, cfg).generate(sym).candidates;
  ASSERT_FALSE(cands.empty());
  bool has_const = false, has_op = false, has_del = false;
  for (const auto& c : cands) {
    for (const auto& ch : c.changes) {
      if (ch.kind == ChangeKind::ChangeSelConst && ch.new_value == Value(7)) {
        has_const = true;
      }
      if (ch.kind == ChangeKind::ChangeSelOp) has_op = true;
      if (ch.kind == ChangeKind::DeleteSel) has_del = true;
    }
  }
  EXPECT_TRUE(has_const);
  EXPECT_TRUE(has_op);
  EXPECT_TRUE(has_del);
  // Cost order: candidates must be non-decreasing.
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].cost, cands[i].cost);
  }
  // Every candidate must apply cleanly.
  for (const auto& c : cands) {
    EXPECT_TRUE(repair::apply_candidate(e.program(), c).has_value())
        << c.description;
  }
}

TEST(Forest, UnwantedTupleYieldsBreakingRepairs) {
  eval::Engine e(ndlog::parse_program(
      "table A/2.\ntable B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0."));
  e.insert(eval::Tuple{"B", {Value(1), Value(7)}});
  ASSERT_TRUE(e.exists(Value(1), "A", {Value(1), Value(7)}));
  repair::Symptom sym;
  sym.polarity = repair::Symptom::Polarity::Unwanted;
  sym.pattern.table = "A";
  sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(7)}};
  repair::RepairSpaceConfig cfg;
  auto cands = repair::RepairGenerator(e, cfg).generate(sym).candidates;
  ASSERT_FALSE(cands.empty());
  bool kills = false;
  for (const auto& c : cands) {
    auto prog = repair::apply_candidate(e.program(), c);
    if (!prog) continue;
    eval::Engine e2(*prog);
    bool deleted_base = false;
    for (const auto& d : repair::candidate_deletions(c)) {
      if (d.table == "B") deleted_base = true;
    }
    if (!deleted_base) e2.insert(eval::Tuple{"B", {Value(1), Value(7)}});
    if (!e2.exists(Value(1), "A", {Value(1), Value(7)})) kills = true;
  }
  EXPECT_TRUE(kills) << "at least one repair must remove the tuple";
}

TEST(Forest, RecursesThroughMissingBodyTuples) {
  eval::Engine e(ndlog::parse_program(
      "table A/2.\ntable M/2.\nevent B/2.\n"
      "r1 A(@X,Q) :- M(@X,Q), Q > 0.\n"
      "r2 M(@X,Q) :- B(@X,Q), Q > 100."));
  e.insert(eval::Tuple{"B", {Value(1), Value(7)}});  // blocked by Q > 100
  repair::Symptom sym;
  sym.pattern.table = "A";
  sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(7)}};
  repair::RepairSpaceConfig cfg;
  auto cands = repair::RepairGenerator(e, cfg).generate(sym).candidates;
  bool touches_r2 = false;
  for (const auto& c : cands) {
    for (const auto& ch : c.changes) {
      if (ch.rule == "r2") touches_r2 = true;
    }
  }
  EXPECT_TRUE(touches_r2) << "the fix lies one derivation deeper (r2)";
}

TEST(Generator, ReportsPhases) {
  eval::Engine e(ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q == 2."));
  e.insert(eval::Tuple{"B", {Value(1), Value(7)}});
  repair::Symptom sym;
  sym.pattern.table = "A";
  sym.pattern.fields = {{1, ndlog::CmpOp::Eq, Value(7)}};
  repair::RepairGenerator gen(e, {});
  auto report = gen.generate(sym);
  EXPECT_FALSE(report.candidates.empty());
  EXPECT_GT(report.phases.total(), 0.0);
  EXPECT_GT(report.stats.solver.calls, 0u);
}

// --- language frontends -------------------------------------------------

TEST(Imp, CondAndInstallSemantics) {
  using namespace imp;
  Cond c{Operand::pkt(sdn::Field::Dpt), ndlog::CmpOp::Eq, Operand::literal(80)};
  sdn::Packet p;
  p.dpt = 80;
  EXPECT_TRUE(c.eval(1, 0, p));
  p.dpt = 53;
  EXPECT_FALSE(c.eval(1, 0, p));
  EXPECT_FALSE(Program{}.to_string().empty());
}

TEST(Imp, RepairsFixSingleFailingGuard) {
  using namespace imp;
  Program prog;
  prog.blocks = {{{Cond{Operand::switch_id(), ndlog::CmpOp::Eq,
                        Operand::literal(2)}},
                  {Install{{sdn::Field::Dpt}, Operand::literal(2), true}}}};
  ImpSymptom sym;
  sym.sw = 3;
  sym.want_port = 2;
  auto cands = generate_repairs(prog, sym);
  ASSERT_GT(cands.size(), 2u);
  bool lit_fix = false;
  for (const auto& c : cands) {
    if (c.kind == ImpChangeKind::ChangeLit && c.new_lit == 3) {
      lit_fix = true;
      Program fixed = c.apply(prog);
      EXPECT_TRUE(fixed.blocks[0].guard[0].eval(3, 0, sym.packet));
    }
  }
  EXPECT_TRUE(lit_fix);
}

TEST(Netcore, PolicyEvaluation) {
  using netcore::Policy;
  auto pol = Policy::par(
      Policy::match_sw(1, Policy::match(sdn::Field::Dpt, 80, Policy::fwd(2))),
      Policy::match_sw(2, Policy::drop()));
  sdn::Packet p;
  p.dpt = 80;
  EXPECT_EQ(eval_policy(pol, 1, 0, p), std::vector<int64_t>{2});
  EXPECT_TRUE(eval_policy(pol, 2, 0, p).empty());
  p.dpt = 53;
  EXPECT_TRUE(eval_policy(pol, 1, 0, p).empty());
  EXPECT_GT(pol->size(), 4u);
  EXPECT_FALSE(pol->to_string().empty());
}

TEST(Netcore, MatchValueRepairRebuildsTree) {
  using netcore::Policy;
  auto pol = Policy::match_sw(2, Policy::match(sdn::Field::Dpt, 80,
                                               Policy::fwd(2)));
  netcore::NetcoreSymptom sym;
  sym.sw = 3;
  sym.packet.dpt = 80;
  sym.want_port = 2;
  auto cands = netcore::generate_repairs(pol, sym);
  bool fixed_any = false;
  for (const auto& c : cands) {
    if (c.kind != netcore::NetcoreChange::Kind::ChangeMatchValue) continue;
    auto repaired = c.apply(pol);
    if (!eval_policy(repaired, 3, 0, sym.packet).empty()) fixed_any = true;
  }
  EXPECT_TRUE(fixed_any);
  // Equality-only: no operator mutations may exist in the netcore space
  // (the paper: operator repairs are "disallowed because of the syntax of
  // match").
  for (const auto& c : cands) {
    const std::string d = c.describe(pol);
    EXPECT_EQ(d.find("!="), std::string::npos) << d;
    EXPECT_EQ(d.find(" > "), std::string::npos) << d;
  }
}

// --- full scenarios -------------------------------------------------------

class ScenarioPipeline : public ::testing::TestWithParam<const char*> {};

// The repair each scenario plants a bug for (Tables 1 and 2).
const std::map<std::string, std::string> kGroundTruth = {
    {"Q1", "Changing Swi == 2 in r7 to Swi == 3"},
    {"Q2", "Changing Sip < 6 in r1 to Sip < 7"},
    {"Q3", "Changing Sip > 3 in r5 to Sip > 1"},
    {"Q4", "Copying r1 and replacing head with PacketOut(Swi,Dpt,Sip,Prt)"},
    {"Q5", "Changing Sip2 := * in f1 to Sip2 := Sip"},
};

// `smoke ALL`'s table, which is deterministic: the counts, then every
// backtested candidate in rank order with its E(ffective)/A(ccepted)
// flags, cost and KS statistic.
const std::map<std::string, std::vector<std::string>> kSmokeTable = {
    {"Q1",
     {
         "candidates=16 effective=15 accepted=4",
         "[EA] cost=1.01000 ks=0.01259  Changing Swi == 2 in r7 to Swi == 3",
         "[E-] cost=2.01000 ks=0.06042  Changing Swi == 1 in r1 to Swi != 1",
         "[EA] cost=2.01000 ks=0.00710  Changing Swi == 1 in r1 to Swi == 3",
         "[E-] cost=2.01000 ks=0.06042  Changing Swi == 1 in r1 to Swi > 1",
         "[E-] cost=2.01000 ks=0.06739  Changing Swi == 1 in r1 to Swi >= 1",
         "[E-] cost=2.01000 ks=0.07757  Changing Swi == 2 in r7 to Swi != 2",
         "[E-] cost=2.01000 ks=0.07757  Changing Swi == 2 in r7 to Swi > 2",
         "[E-] cost=2.01000 ks=0.07757  Changing Swi == 2 in r7 to Swi >= 2",
         "[EA] cost=2.01000 ks=0.00172  Manually installing"
         " FlowTable(3,80,1,2)",
         "[EA] cost=2.51000 ks=0.01271  Changing Swi == 2 in r5 to Swi"
         " == 3 and Changing Prt := 1 in r5 to Prt := 2",
         "[E-] cost=3.51000 ks=0.06438  Changing Hdr == 53 in r6 to Hdr"
         " != 53 and Changing Prt := 3 in r6 to Prt := 2",
         "[E-] cost=3.51000 ks=0.06438  Changing Hdr == 53 in r6 to Hdr"
         " == 80 and Changing Prt := 3 in r6 to Prt := 2",
         "[E-] cost=3.51000 ks=0.06438  Changing Hdr == 53 in r6 to Hdr"
         " > 53 and Changing Prt := 3 in r6 to Prt := 2",
         "[E-] cost=3.51000 ks=0.07616  Changing Hdr == 53 in r6 to Hdr"
         " >= 53 and Changing Prt := 3 in r6 to Prt := 2",
         "[--] cost=3.51000 ks=0.00883  Changing Swi == 1 in r1 to Prt == 1",
         "[E-] cost=3.51000 ks=0.06952  Changing Swi == 2 in r5 to Swi"
         " != 2 and Changing Prt := 1 in r5 to Prt := 2",
     }},
    {"Q2",
     {
         "candidates=16 effective=9 accepted=3",
         "[EA] cost=1.01000 ks=0.00271  Changing Sip < 6 in r1 to Sip < 7",
         "[E-] cost=2.01000 ks=0.05723  Changing Sip < 6 in r1 to Sip < 101",
         "[E-] cost=2.01000 ks=0.05731  Changing Sip < 6 in r1 to Sip < 126",
         "[E-] cost=2.01000 ks=0.06368  Changing Sip < 6 in r1 to Sip < 2009",
         "[EA] cost=2.01000 ks=0.00271  Changing Sip < 6 in r1 to Sip <= 6",
         "[--] cost=2.01000 ks=0.04465  Changing Sip < 6 in r1 to Sip == 6",
         "[E-] cost=2.01000 ks=0.02233  Changing Sip < 6 in r1 to Sip >= 6",
         "[EA] cost=2.01000 ks=0.00271  Manually installing"
         " FlowTable(1,53,6,2)",
         "[--] cost=2.51000 ks=0.04764  Changing Swi == 2 in r2 to Swi"
         " == 1 and Changing Prt := 1 in r2 to Prt := 2",
         "[--] cost=3.51000 ks=0.04764  Changing Sip < 6 in r1 to C < 6",
         "[--] cost=3.51000 ks=0.04764  Changing Sip < 6 in r1 to Dpt < 6",
         "[E-] cost=3.51000 ks=0.06368  Changing Sip < 6 in r1 to Prt < 6",
         "[E-] cost=3.51000 ks=0.06368  Changing Sip < 6 in r1 to Swi < 6",
         "[--] cost=3.51000 ks=0.04764  Changing Swi == 2 in r2 to Swi"
         " != 2 and Changing Prt := 1 in r2 to Prt := 2",
         "[--] cost=3.51000 ks=0.04764  Changing Swi == 2 in r2 to Swi"
         " < 2 and Changing Prt := 1 in r2 to Prt := 2",
         "[--] cost=3.51000 ks=0.04764  Changing Swi == 2 in r2 to Swi"
         " <= 2 and Changing Prt := 1 in r2 to Prt := 2",
     }},
    {"Q3",
     {
         "candidates=16 effective=12 accepted=5",
         "[EA] cost=1.01000 ks=0.00284  Changing Sip > 3 in r5 to Sip > 2",
         "[E-] cost=1.01000 ks=0.04365  Changing Swi == 2 in r3 to Swi == 3",
         "[E-] cost=2.01000 ks=0.04144  Changing Sip > 3 in r5 to Sip <= 3",
         "[EA] cost=2.01000 ks=0.00284  Changing Sip > 3 in r5 to Sip == 3",
         "[E-] cost=2.01000 ks=0.04144  Changing Sip > 3 in r5 to Sip > 0",
         "[EA] cost=2.01000 ks=0.00520  Changing Sip > 3 in r5 to Sip > 1",
         "[EA] cost=2.01000 ks=0.00284  Changing Sip > 3 in r5 to Sip >= 3",
         "[E-] cost=2.01000 ks=0.04365  Changing Swi == 2 in r3 to Swi != 2",
         "[E-] cost=2.01000 ks=0.04365  Changing Swi == 2 in r3 to Swi > 2",
         "[E-] cost=2.01000 ks=0.04144  Changing Swi == 2 in r3 to Swi >= 2",
         "[EA] cost=2.01000 ks=0.00284  Manually installing"
         " FlowTable(3,80,3,1)",
         "[E-] cost=3.51000 ks=0.04144  Changing Sip > 3 in r5 to Dpt > 3",
         "[--] cost=3.51000 ks=0.00000  Changing Sip > 3 in r5 to Prt > 3",
         "[--] cost=3.51000 ks=0.00000  Changing Sip > 3 in r5 to Swi > 3",
         "[--] cost=3.51000 ks=0.05292  Changing Swi == 2 in r3 to Dpt == 2",
         "[--] cost=3.51000 ks=0.05292  Changing Swi == 2 in r3 to Prt == 2",
     }},
    {"Q4",
     {
         "candidates=13 effective=8 accepted=4",
         "[--] cost=2.01000 ks=0.00000  Manually installing"
         " PacketOut(1,80,0,2)",
         "[E-] cost=5.01000 ks=0.01097  Changing the head of r1 to"
         " PacketOut(Swi,Dpt,Sip,Prt)",
         "[E-] cost=5.01000 ks=0.01097  Changing the head of r2 to"
         " PacketOut(Swi,Dpt,Sip,Prt)",
         "[--] cost=6.01000 ks=0.04832  Changing the head of r1 to"
         " PacketOut(Swi,Dpt,Prt,Sip)",
         "[E-] cost=6.01000 ks=0.01097  Changing the head of r1 to"
         " PacketOut(Swi,Sip,Dpt,Prt)",
         "[--] cost=6.01000 ks=0.04832  Changing the head of r2 to"
         " PacketOut(Swi,Dpt,Prt,Sip)",
         "[E-] cost=6.01000 ks=0.01097  Changing the head of r2 to"
         " PacketOut(Swi,Sip,Dpt,Prt)",
         "[EA] cost=6.01000 ks=0.01097  Copying r1 and replacing head"
         " with PacketOut(Swi,Dpt,Sip,Prt)",
         "[EA] cost=6.01000 ks=0.01097  Copying r2 and replacing head"
         " with PacketOut(Swi,Dpt,Sip,Prt)",
         "[--] cost=7.01000 ks=0.00000  Copying r1 and replacing head"
         " with PacketOut(Swi,Dpt,Prt,Sip)",
         "[EA] cost=7.01000 ks=0.01097  Copying r1 and replacing head"
         " with PacketOut(Swi,Sip,Dpt,Prt)",
         "[--] cost=7.01000 ks=0.00000  Copying r2 and replacing head"
         " with PacketOut(Swi,Dpt,Prt,Sip)",
         "[EA] cost=7.01000 ks=0.01097  Copying r2 and replacing head"
         " with PacketOut(Swi,Sip,Dpt,Prt)",
     }},
    {"Q5",
     {
         "candidates=9 effective=4 accepted=2",
         "[EA] cost=2.01000 ks=0.00000  Manually installing Learn(C,34,1)",
         "[--] cost=2.51000 ks=0.00992  Changing Sip2 := * in f1 to Sip2 := 34",
         "[E-] cost=3.01000 ks=0.01496  Changing Sip2 := * in f1 to Sip2 := C",
         "[EA] cost=3.01000 ks=0.00000  Changing Sip2 := * in f1 to"
         " Sip2 := Sip",
         "[E-] cost=3.01000 ks=0.01496  Changing Sip2 := * in f1 to"
         " Sip2 := Swi",
         "[--] cost=5.02000 ks=0.00000  Changing the head of f2 to"
         " Loc(C,Sip,Ipt)",
         "[--] cost=6.02000 ks=0.00000  Changing the head of f2 to"
         " Loc(C,Ipt,Sip)",
         "[--] cost=6.02000 ks=0.00000  Copying f2 and replacing head"
         " with Loc(C,Sip,Ipt)",
         "[--] cost=7.02000 ks=0.00000  Copying f2 and replacing head"
         " with Loc(C,Ipt,Sip)",
     }},
};

TEST_P(ScenarioPipeline, GeneratesAndAcceptsPaperLikeRepairs) {
  for (auto& s : scenario::all_scenarios()) {
    if (s.id != GetParam()) continue;
    scenario::PipelineOptions opt;
    opt.multiquery = true;
    auto r = scenario::run_pipeline(s, opt);
    std::vector<std::string> table;
    char buf[256];
    std::snprintf(buf, sizeof buf, "candidates=%zu effective=%zu accepted=%zu",
                  r.candidates, r.effective, r.accepted);
    table.push_back(buf);
    bool truth_accepted = false;
    for (const auto& e : r.backtest.entries) {
      std::snprintf(buf, sizeof buf, "[%c%c] cost=%.5f ks=%.5f  %s",
                    e.effective ? 'E' : '-', e.accepted ? 'A' : '-',
                    e.candidate.cost, e.ks.statistic,
                    e.candidate.description.c_str());
      table.push_back(buf);
      if (e.candidate.description == kGroundTruth.at(s.id)) {
        truth_accepted = e.accepted;
      }
    }
    EXPECT_TRUE(truth_accepted)
        << s.id << ": the ground truth must be accepted: "
        << kGroundTruth.at(s.id);
    EXPECT_EQ(table, kSmokeTable.at(s.id)) << s.id;
    return;
  }
  FAIL() << "scenario not found";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioPipeline,
                         ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5"));

// The Fig 9a breakdown: exactly the four phases, each timed by its own
// scopes inside run_pipeline's, so each is non-zero and they sum to at
// most the turnaround. A dropped interval leaves its phase at zero; one
// booked twice breaks the sum once it outweighs the pipeline's unbooked
// set-up (harness build and incident recording).
TEST(Scenario, Fig9aPhasesPartitionTurnaround) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  const scenario::PipelineResult r = scenario::run_pipeline(s, {});
  const std::vector<std::string> fig9a = {
      "constraint solving", "history lookups", "patch generation", "replay"};
  std::vector<std::string> booked;
  for (const auto& [phase, secs] : r.phases.phases()) booked.push_back(phase);
  EXPECT_EQ(booked, fig9a);
  double sum = 0.0;
  for (const std::string& phase : fig9a) {
    EXPECT_GT(r.phases.get(phase), 0.0) << phase;
    sum += r.phases.get(phase);
  }
  EXPECT_LE(sum, r.total_seconds);
}

TEST(Scenario, GroundTruthProgramsFixSymptoms) {
  for (auto& s : scenario::all_scenarios()) {
    // Replaying the *fixed* program must satisfy the symptom predicate.
    scenario::ScenarioHarness harness(s);
    auto base = harness.replay_baseline();
    EXPECT_FALSE(base.symptom_fixed);
    // Wrap the fixed program as a "candidate" via rule-by-rule diffs is
    // complex; instead record the scenario with its program replaced by
    // the fix.
    scenario::Scenario cured = s;
    cured.program = s.fixed;
    const scenario::ScenarioHarness cured_harness(cured);
    scenario::ScenarioRun run = cured_harness.recorded_world();
    sdn::replay(run.net(), cured_harness.workload());
    auto out = backtest::outcome_from_stats(run.net().stats());
    EXPECT_TRUE(s.symptom_fixed(out, base, run.engine(), eval::kAllTags))
        << s.id << ": the ground-truth fix must cure the symptom";
  }
}

TEST(Scenario, SequentialAndJointBacktestsAgree) {
  auto s = scenario::q1_copy_paste({});
  scenario::ScenarioHarness h(s);
  repair::RepairCandidate fix;
  Change c;
  c.kind = ChangeKind::ChangeSelConst;
  c.rule = "r7";
  c.index = 0;
  c.side = 1;
  c.new_value = Value(3);
  fix.changes.push_back(c);
  auto seq = h.replay(fix);
  auto joint = h.replay_joint({fix});
  ASSERT_EQ(joint.size(), 1u);
  EXPECT_EQ(seq.delivered(), joint[0].delivered());
  EXPECT_EQ(seq.dropped, joint[0].dropped);
  EXPECT_EQ(seq.symptom_fixed, joint[0].symptom_fixed);
  memo_test::expect_same_tallies(seq, joint[0], "r7 fix");

  // Every backtested candidate of the five scenarios, scored sequentially
  // and jointly: per-host, per-(host, dpt) and dropped tallies, the KS bits
  // and the flags. Exactly three Q1 candidates differ today (ROADMAP item
  // 10): the joint world delivers to H1:80 packets that their sequential
  // worlds drop. The joint world's combined program derives two
  // same-priority FlowTable rows on switch 2 in the opposite order from the
  // candidate's own program, and FlowTable::outranks breaks the tie by
  // install order. This pin moves to "none" with that fix.
  auto ks_bits = [](const KsResult& k) {
    return std::vector<uint64_t>{std::bit_cast<uint64_t>(k.statistic),
                                 std::bit_cast<uint64_t>(k.critical),
                                 std::bit_cast<uint64_t>(k.pvalue),
                                 static_cast<uint64_t>(k.significant)};
  };
  std::set<std::string> differ;
  size_t backtested = 0;
  for (const scenario::Scenario& sc : scenario::all_scenarios()) {
    scenario::PipelineOptions opt;
    opt.multiquery = false;
    const scenario::PipelineResult sequential = scenario::run_pipeline(sc, opt);
    opt.multiquery = true;
    const scenario::PipelineResult jointly = scenario::run_pipeline(sc, opt);
    const auto& a = sequential.backtest.entries;
    const auto& b = jointly.backtest.entries;
    ASSERT_EQ(a.size(), b.size()) << sc.id;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].candidate.description, b[i].candidate.description)
          << sc.id;
      const size_t hosts = std::max(a[i].outcome.per_host.size(),
                                    b[i].outcome.per_host.size());
      const bool same =
          memo_test::host_tallies(a[i].outcome, hosts) ==
              memo_test::host_tallies(b[i].outcome, hosts) &&
          memo_test::port_tallies(a[i].outcome) ==
              memo_test::port_tallies(b[i].outcome) &&
          a[i].outcome.dropped == b[i].outcome.dropped &&
          ks_bits(a[i].ks) == ks_bits(b[i].ks) &&
          a[i].outcome.valid == b[i].outcome.valid &&
          a[i].outcome.symptom_fixed == b[i].outcome.symptom_fixed &&
          a[i].effective == b[i].effective && a[i].accepted == b[i].accepted;
      if (!same) differ.insert(sc.id + ": " + a[i].candidate.description);
      ++backtested;
    }
  }
  EXPECT_GT(backtested, 5u * 8u);
  const std::set<std::string> known = {
      "Q1: Changing Swi == 1 in r1 to Swi != 1",
      "Q1: Changing Swi == 1 in r1 to Swi > 1",
      "Q1: Changing Swi == 1 in r1 to Swi >= 1"};
  EXPECT_EQ(differ, known) << "of " << backtested << " backtested candidates";
}

// Every world inserts its base tuples in one order: the config tuples, then
// the candidate's insertions. Here Q1's WebLoadBalancer is keyed on
// (controller, bucket) and its config holds a third row, (C,1,5), that
// displaces (C,1,2). A candidate's worlds must then hold the same rows and
// score alike sequentially and jointly:
// - `move` deletes (C,2,3) and inserts (C,1,3), which displaces the config
//   row for bucket 1 it keeps;
// - `restore` deletes (C,1,5), which no tag of its joint world keeps, so
//   the row is withheld there as in the sequential world and (C,1,2)
//   survives.
TEST(Scenario, SequentialAndJointWorldsInsertBaseTuplesAlike) {
  scenario::Scenario s = scenario::q1_copy_paste({});
  for (ndlog::TableDecl& t : s.program.tables) {
    if (t.name == "WebLoadBalancer") t.keys = {0, 1};
  }
  auto lb = [](int64_t bucket, int64_t port) {
    return eval::Tuple{"WebLoadBalancer",
                       {Value::str("C"), Value(bucket), Value(port)}};
  };
  s.config_tuples = {lb(1, 2), lb(2, 3), lb(1, 5)};
  auto change = [](ChangeKind kind, const eval::Tuple& t) {
    Change c;
    c.kind = kind;
    c.tuple = t;
    return c;
  };
  RepairCandidate move;
  move.description = "move";
  move.changes = {change(ChangeKind::DeleteBaseTuple, lb(2, 3)),
                  change(ChangeKind::InsertBaseTuple, lb(1, 3))};
  RepairCandidate restore;
  restore.description = "restore";
  restore.changes = {change(ChangeKind::DeleteBaseTuple, lb(1, 5))};
  // The rows each candidate's worlds must hold.
  const std::vector<std::pair<RepairCandidate, std::vector<eval::Tuple>>>
      cases = {{move, {lb(1, 3)}}, {restore, {lb(1, 2), lb(2, 3)}}};

  scenario::ScenarioHarness h(s);
  h.replay_baseline();
  for (const auto& [cand, rows] : cases) {
    const std::string& where = cand.description;
    std::optional<scenario::ScenarioRun> seq = h.candidate_world(cand);
    ASSERT_TRUE(seq.has_value()) << where;
    const backtest::CombinedProgram combined =
        backtest::build_backtest_program(s.program, {cand});
    scenario::ScenarioRun joint = h.joint_world(combined);
    for (const eval::Tuple& t : {lb(1, 2), lb(2, 3), lb(1, 5), lb(1, 3)}) {
      const bool held =
          std::find(rows.begin(), rows.end(), t) != rows.end();
      EXPECT_EQ(seq->engine().tags_of(t.location(), t.table, t.row) != 0,
                held)
          << where << " sequential " << t.to_string();
      EXPECT_EQ(joint.engine().tags_of(t.location(), t.table, t.row) != 0,
                held)
          << where << " joint " << t.to_string();
    }
    seq->net().replay_batch(h.workload(), h.memo());
    joint.net().replay_batch(h.workload(), h.memo());
    // One candidate: the joint world's totals are its tag's. Tags count
    // deliveries, drops, external exits and PacketIns.
    const sdn::DeliveryStats& want = seq->net().stats();
    memo_test::expect_same_stats(joint.net().stats(), want, where);
    const sdn::DeliveryStats& tag = joint.net().tag_stats(0);
    EXPECT_EQ(tag.delivered(), want.delivered()) << where;
    EXPECT_EQ(tag.dropped, want.dropped) << where;
    EXPECT_EQ(tag.external, want.external) << where;
    EXPECT_EQ(tag.packet_ins, want.packet_ins) << where;
    memo_test::expect_same_tallies(tag, want, where);
    memo_test::expect_same_ctrl(joint.net().recorder(), seq->net().recorder(),
                                where);

    std::string reports[2];
    for (const bool multiquery : {false, true}) {
      backtest::BacktestConfig cfg;
      cfg.use_multiquery = multiquery;
      scenario::ScenarioHarness fresh(s);
      reports[multiquery] = memo_test::report_text(
          backtest::Backtester(cfg).run(fresh, {cand}));
    }
    EXPECT_EQ(reports[true], reports[false]) << where;
  }
}

// --- delta candidate programs ----------------------------------------------
//
// CandidateChecker applies candidates as deltas over a once-validated base.
// The oracles below are the brute-force algorithms it replaced: copy the
// whole program, apply every change, validate everything, and (for the
// combined tag-mode program) print and diff every rule.

std::optional<ndlog::Program> brute_apply(const ndlog::Program& base,
                                          const RepairCandidate& cand) {
  ndlog::Program p = base;
  for (const Change& c : cand.changes) {
    if (!c.apply(p)) return std::nullopt;
  }
  if (!ndlog::is_valid(p)) return std::nullopt;
  return p;
}

backtest::CombinedProgram brute_combine(
    const ndlog::Program& base, const std::vector<RepairCandidate>& cands) {
  backtest::CombinedProgram out;
  out.program = base;
  out.candidate_count = std::min(cands.size(), eval::kMaxTags);
  const eval::TagMask all =
      out.candidate_count >= eval::kMaxTags
          ? eval::kAllTags
          : (eval::TagMask{1} << out.candidate_count) - 1;
  for (const auto& rule : base.rules) out.rule_restrict[rule.name] = all;
  for (size_t i = 0; i < out.candidate_count; ++i) {
    const eval::TagMask bit = eval::TagMask{1} << i;
    auto prog = brute_apply(base, cands[i]);
    if (!prog) {
      out.invalid.push_back(i);
      continue;
    }
    for (const auto& rule : prog->rules) {
      const ndlog::Rule* orig = base.find_rule(rule.name);
      if (orig != nullptr && orig->to_string() == rule.to_string()) continue;
      ndlog::Rule copy = rule;
      copy.name = rule.name + "#" + std::to_string(i);
      out.program.rules.push_back(copy);
      out.rule_restrict[copy.name] = bit;
      if (orig != nullptr) out.rule_restrict[orig->name] &= ~bit;
    }
    for (const auto& rule : base.rules) {
      if (prog->find_rule(rule.name) == nullptr) {
        out.rule_restrict[rule.name] &= ~bit;
      }
    }
    for (const eval::Tuple& t : repair::candidate_insertions(cands[i])) {
      out.insertions.emplace_back(t, bit);
    }
    for (const eval::Tuple& t : repair::candidate_deletions(cands[i])) {
      out.deletions.emplace_back(t, bit);
    }
  }
  return out;
}

bool touches_program(const RepairCandidate& c) {
  for (const Change& ch : c.changes) {
    if (ch.kind != ChangeKind::InsertBaseTuple &&
        ch.kind != ChangeKind::DeleteBaseTuple) {
      return true;
    }
  }
  return false;
}

// Checks every candidate's delta verdict and program against brute_apply,
// and the combined program (in slices of kMaxTags) against brute_combine.
// Returns how many candidates were valid.
size_t expect_matches_oracle(const ndlog::Program& base,
                             const std::vector<RepairCandidate>& cands,
                             const std::string& what) {
  const repair::CandidateChecker checker(base);
  size_t valid = 0;
  for (const RepairCandidate& c : cands) {
    const auto brute = brute_apply(base, c);
    const std::string desc = what + ": " + c.describe(base);
    EXPECT_EQ(checker.valid(c), brute.has_value()) << desc;
    const auto spliced = repair::apply_candidate(base, c);
    EXPECT_EQ(spliced.has_value(), brute.has_value()) << desc;
    if (spliced && brute) {
      ++valid;
      EXPECT_EQ(spliced->to_string(), brute->to_string()) << desc;
    }
  }
  for (size_t lo = 0; lo < cands.size(); lo += eval::kMaxTags) {
    const std::vector<RepairCandidate> slice(
        cands.begin() + static_cast<long>(lo),
        cands.begin() +
            static_cast<long>(std::min(cands.size(), lo + eval::kMaxTags)));
    const auto got = backtest::build_backtest_program(base, slice);
    const auto want = brute_combine(base, slice);
    EXPECT_EQ(got.program.to_string(), want.program.to_string()) << what;
    EXPECT_EQ(got.rule_restrict, want.rule_restrict) << what;
    EXPECT_EQ(got.insertions, want.insertions) << what;
    EXPECT_EQ(got.deletions, want.deletions) << what;
    EXPECT_EQ(got.invalid, want.invalid) << what;
    EXPECT_EQ(got.candidate_count, want.candidate_count) << what;
  }
  return valid;
}

std::vector<RepairCandidate> generated_candidates(const scenario::Scenario& s) {
  scenario::ScenarioHarness harness(s);
  repair::RepairGenerator gen(harness.buggy_run().engine(), s.space);
  std::vector<RepairCandidate> out;
  for (const auto& symptom : s.symptoms) {
    for (auto& c : gen.generate(symptom).candidates) out.push_back(std::move(c));
  }
  return out;
}

// Every candidate the generator produces, plus variants: each candidate
// applied twice (a second copy onto the same name, a second deletion at a
// shifted index) and after deleting the rule it names, and the pairwise
// concatenations of the first dozen (edits stacked on one rule, a copy
// and a deletion of its source, ...).
std::vector<RepairCandidate> with_variants(std::vector<RepairCandidate> cands) {
  const size_t n = cands.size();
  for (size_t a = 0; a < n; ++a) {
    RepairCandidate twice;
    twice.changes = cands[a].changes;
    twice.changes.insert(twice.changes.end(), cands[a].changes.begin(),
                         cands[a].changes.end());
    cands.push_back(std::move(twice));
    for (const Change& c : cands[a].changes) {
      if (c.rule.empty()) continue;
      RepairCandidate after_delete;
      Change del;
      del.kind = ChangeKind::DeleteRule;
      del.rule = c.rule;
      after_delete.changes.push_back(del);
      after_delete.changes.insert(after_delete.changes.end(),
                                  cands[a].changes.begin(),
                                  cands[a].changes.end());
      cands.push_back(std::move(after_delete));
      break;
    }
  }
  const size_t k = std::min<size_t>(n, 12);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      if (a == b) continue;
      RepairCandidate c;
      c.changes = cands[a].changes;
      c.changes.insert(c.changes.end(), cands[b].changes.begin(),
                       cands[b].changes.end());
      cands.push_back(std::move(c));
    }
  }
  return cands;
}

TEST(DeltaOracle, GeneratedCandidatesMatchFullCopy) {
  std::vector<scenario::Scenario> all = scenario::all_scenarios();
  scenario::Scenario padded = scenario::q1_copy_paste({});
  e2e::pad_program(padded, 900);
  ASSERT_GE(padded.program.line_count(), 900u);
  padded.id = "Q1/900";
  all.push_back(std::move(padded));
  for (const scenario::Scenario& s : all) {
    const std::vector<RepairCandidate> generated = generated_candidates(s);
    ASSERT_FALSE(generated.empty()) << s.id;
    const std::vector<RepairCandidate> cands = with_variants(generated);
    const size_t valid = expect_matches_oracle(s.program, cands, s.id);
    // The generator only emits valid candidates; the variants mix in
    // invalid ones, so both verdicts are exercised.
    EXPECT_GE(valid, generated.size()) << s.id;
    EXPECT_LT(valid, cands.size()) << s.id;
  }
}

Change sel_const(const std::string& rule, size_t index, size_t side,
                 Value v) {
  Change c;
  c.kind = ChangeKind::ChangeSelConst;
  c.rule = rule;
  c.index = index;
  c.side = side;
  c.new_value = std::move(v);
  return c;
}

Change kind_on(ChangeKind kind, const std::string& rule) {
  Change c;
  c.kind = kind;
  c.rule = rule;
  return c;
}

RepairCandidate cand_of(std::vector<Change> changes) {
  RepairCandidate c;
  c.changes = std::move(changes);
  return c;
}

ndlog::Program delta_base() {
  return ndlog::parse_program(
      "table A/3.\ntable T/3.\ntable W/2.\nevent B/3.\n"
      "r1 A(@X,P,Q) :- B(@X,P,V), P == 2, V != 3, Q := 7.\n"
      "r2 T(@X,P,V) :- B(@X,P,V), P > 0.\n"
      "r3 W(@X,U) :- B(@X,P,V), T(@X,P,U), V == 1.");
}

TEST(DeltaOracle, HandWrittenCases) {
  const ndlog::Program base = delta_base();
  Change copy = kind_on(ChangeKind::CopyRuleRetarget, "r2");
  copy.new_head_table = "A";
  Change copy_onto_r3 = copy;
  copy_onto_r3.copy_name = "r3";
  Change head_undeclared = kind_on(ChangeKind::ChangeHeadTable, "r1");
  head_undeclared.new_head_table = "Nope";
  Change head_arity = kind_on(ChangeKind::ChangeHeadTable, "r1");
  head_arity.new_head_table = "W";  // W/2, no permutation
  Change head_perm = head_arity;
  head_perm.head_perm = {0, 2};
  Change unbind_sel = kind_on(ChangeKind::ChangeSelVar, "r2");
  unbind_sel.new_value = Value::str("Zz");
  Change unbind_head = kind_on(ChangeKind::DeleteBodyAtom, "r3");
  unbind_head.index = 1;  // T binds the head's U
  Change unbind_assign = kind_on(ChangeKind::ChangeAssignVar, "r1");
  unbind_assign.new_value = Value::str("Zz");
  Change insert;
  insert.kind = ChangeKind::InsertBaseTuple;
  insert.tuple = eval::Tuple{"B", {Value(1), Value(2), Value(3)}};
  Change remove = insert;
  remove.kind = ChangeKind::DeleteBaseTuple;
  Change edit_copy = sel_const("r2'", 0, 1, Value(5));

  const std::vector<RepairCandidate> cases = {
      // A copy onto an existing rule name is refused...
      cand_of({copy_onto_r3}),
      // ...unless that rule was deleted first.
      cand_of({kind_on(ChangeKind::DeleteRule, "r3"), copy_onto_r3}),
      // Delete-then-edit of the same rule: the edit finds no rule.
      cand_of({kind_on(ChangeKind::DeleteRule, "r1"), sel_const("r1", 0, 1,
                                                                Value(4))}),
      // Edit-then-delete is fine.
      cand_of({sel_const("r1", 0, 1, Value(4)),
               kind_on(ChangeKind::DeleteRule, "r1")}),
      // Head retargets: undeclared table, wrong arity, a fitting permutation.
      cand_of({head_undeclared}),
      cand_of({head_arity}),
      cand_of({head_perm}),
      // Edits that unbind a selection, head or assignment variable.
      cand_of({unbind_sel}),
      cand_of({unbind_head}),
      cand_of({unbind_assign}),
      // Byte-identical edit (P == 2 -> P == 2): valid, no tagged copy.
      cand_of({sel_const("r1", 0, 1, Value(2))}),
      // Copies: edited, copied again, deleted, and the copy's name reused.
      cand_of({copy, edit_copy}),
      cand_of({copy, kind_on(ChangeKind::DeleteRule, "r2'")}),
      cand_of({copy, kind_on(ChangeKind::DeleteRule, "r2'"), copy}),
      cand_of({copy, copy}),
      // Copy a rule, then delete its source.
      cand_of({copy, kind_on(ChangeKind::DeleteRule, "r2")}),
      // Stale index, missing rule, base tuples only.
      cand_of({sel_const("r1", 9, 1, Value(4))}),
      cand_of({sel_const("missing", 0, 1, Value(4))}),
      cand_of({insert, remove}),
      cand_of({insert, sel_const("r2", 0, 1, Value(1))}),
  };
  const std::vector<bool> expect_valid = {
      false, true, false, true, false, false, true, false, false, false,
      true,  true, true,  true, false, true, false, false, true,  true};
  ASSERT_EQ(cases.size(), expect_valid.size());
  const repair::CandidateChecker checker(base);
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(checker.valid(cases[i]), expect_valid[i]) << "case " << i;
  }
  expect_matches_oracle(base, cases, "hand-written");

  const auto same = backtest::build_backtest_program(base, {cases[10]});
  EXPECT_EQ(same.program.rules.size(), base.rules.size())
      << "a byte-identical edit needs no tagged copy";
  EXPECT_EQ(same.rule_restrict.at("r1"), eval::TagMask{1});
}

TEST(DeltaOracle, InvalidBaseRejectsEveryProgramCandidate) {
  // r3's head table is undeclared: the base does not validate, and no
  // candidate that leaves r3 alone can make it.
  const ndlog::Program base = ndlog::parse_program(
      "table A/3.\ntable T/3.\nevent B/3.\n"
      "r1 A(@X,P,Q) :- B(@X,P,V), P == 2, V != 3, Q := 7.\n"
      "r2 T(@X,P,V) :- B(@X,P,V), P > 0.\n"
      "r3 W(@X,V) :- B(@X,P,V), V == 1.");
  ASSERT_FALSE(ndlog::is_valid(base));
  std::vector<RepairCandidate> cands;
  for (const std::string rule : {"r1", "r2", "r3"}) {
    cands.push_back(cand_of({sel_const(rule, 0, 1, Value(1))}));
    cands.push_back(cand_of({kind_on(ChangeKind::DeleteSel, rule)}));
  }
  Change copy = kind_on(ChangeKind::CopyRuleRetarget, "r2");
  copy.new_head_table = "A";
  cands.push_back(cand_of({copy}));
  cands.push_back(cand_of({kind_on(ChangeKind::DeleteRule, "r1")}));
  const repair::CandidateChecker checker(base);
  for (const RepairCandidate& c : cands) {
    ASSERT_TRUE(touches_program(c));
    EXPECT_FALSE(checker.valid(c)) << c.describe(base);
  }
  EXPECT_EQ(expect_matches_oracle(base, cands, "invalid base"), 0u);
  // Deleting the invalid rule is the one way out, as with a full copy.
  EXPECT_EQ(expect_matches_oracle(
                base, {cand_of({kind_on(ChangeKind::DeleteRule, "r3")})},
                "invalid base, r3 deleted"),
            1u);
}

TEST(DeltaOracle, DuplicateRuleNamesResolveLikeFindRule) {
  // Two rules named r1 (an invalid base): changes hit the first surviving
  // one, and the result validates only once one of them is gone.
  const ndlog::Program base = ndlog::parse_program(
      "table A/2.\nevent B/2.\n"
      "r1 A(@X,Q) :- B(@X,Q), Q == 2.\n"
      "r2 A(@X,Q) :- B(@X,Q), Q == 3.\n"
      "r1 A(@X,Q) :- B(@X,Q), Q == 4.");
  ASSERT_FALSE(ndlog::is_valid(base));
  const Change del = kind_on(ChangeKind::DeleteRule, "r1");
  const Change edit = sel_const("r1", 0, 1, Value(9));
  const std::vector<RepairCandidate> cands = {
      cand_of({edit}),      cand_of({del}),       cand_of({del, edit}),
      cand_of({edit, del}), cand_of({del, del}),  cand_of({del, del, edit}),
      cand_of({sel_const("r2", 0, 1, Value(9))}),
  };
  EXPECT_EQ(expect_matches_oracle(base, cands, "duplicate names"), 4u);
}

// Joint backtests replay one tag bit per candidate; Backtester::run must
// slice longer lists instead of dropping everything past the 64th.
TEST(Scenario, JointBacktestCoversCandidatesPast64) {
  const scenario::Scenario s = scenario::q1_copy_paste({});
  std::vector<RepairCandidate> cands;
  for (int64_t i = 0; i < 70; ++i) {
    // Candidate 66 is the ground-truth fix (r7: Swi == 2 -> Swi == 3);
    // candidate 68 is stale and must be reported invalid.
    cands.push_back(cand_of({sel_const(
        "r7", i == 68 ? 9 : 0, 1, Value(i == 66 ? int64_t{3} : 1000 + i))}));
    cands.back().description = "candidate " + std::to_string(i);
  }
  backtest::BacktestConfig joint_cfg;
  joint_cfg.use_multiquery = true;
  scenario::ScenarioHarness joint_harness(s);
  const auto joint = backtest::Backtester(joint_cfg).run(joint_harness, cands);
  scenario::ScenarioHarness seq_harness(s);
  const auto seq = backtest::Backtester().run(seq_harness, cands);
  ASSERT_EQ(joint.entries.size(), cands.size());
  ASSERT_EQ(seq.entries.size(), cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(joint.entries[i].effective, seq.entries[i].effective) << i;
    EXPECT_EQ(joint.entries[i].accepted, seq.entries[i].accepted) << i;
    EXPECT_EQ(joint.entries[i].outcome.valid, seq.entries[i].outcome.valid)
        << i;
  }
  EXPECT_TRUE(seq.entries[66].effective);
  EXPECT_FALSE(seq.entries[68].outcome.valid);
}

// --- static-path memo -------------------------------------------------------
//
// Candidate worlds book memoized packets instead of walking them
// (src/sdn/README.md, "Static-path memo"). Against the memo-free reference,
// the same worlds with every packet walked, the statistics (per tag too),
// the control logs and the backtest reports must be identical.

class PathMemoOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(PathMemoOracle, MatchesWalkingEveryPacket) {
  const std::vector<scenario::Scenario> all = scenario::all_scenarios();
  const scenario::Scenario* found = nullptr;
  for (const scenario::Scenario& s : all) {
    if (s.id == GetParam()) found = &s;
  }
  ASSERT_NE(found, nullptr);
  const scenario::Scenario& s = *found;
  scenario::ScenarioHarness h(s);

  // The recorded world fills the memo while walking every packet.
  scenario::ScenarioRun recorded = h.recorded_world();
  sdn::replay(recorded.net(), h.workload());
  const sdn::Network& filled = h.buggy_run().net();
  memo_test::expect_same_world(filled, recorded.net(), 0, s.id + " recorded");
  EXPECT_EQ(filled.packet_log_bytes(),
            h.workload().size() * sdn::kPacketLogEntryBytes);
  EXPECT_EQ(h.memo().size(), h.workload().size());
  EXPECT_GT(h.memo().entries(), 0u) << s.id;

  // Every generated candidate, in one joint world (at most 32 here). Q2's
  // 32 once never finished jointly: tag groups circling a loop outlived
  // the hop budget (Network.HopCapDropsEveryGroupInFlight).
  std::vector<RepairCandidate> cands = generated_candidates(s);
  ASSERT_FALSE(cands.empty()) << s.id;
  ASSERT_LE(cands.size(), eval::kMaxTags) << s.id;
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i].description = "candidate " + std::to_string(i);
  }
  size_t hits = 0;
  for (size_t i = 0; i < cands.size(); ++i) {
    const std::string where = s.id + " candidate " + std::to_string(i);
    std::optional<scenario::ScenarioRun> memo = h.candidate_world(cands[i]);
    std::optional<scenario::ScenarioRun> walk = h.candidate_world(cands[i]);
    ASSERT_EQ(memo.has_value(), walk.has_value()) << where;
    if (!memo) continue;
    memo->net().replay_batch(h.workload(), h.memo());
    sdn::replay(walk->net(), h.workload());
    memo_test::expect_same_world(memo->net(), walk->net(), 0, where);
    EXPECT_EQ(walk->net().memo_hits() + walk->net().memo_walks(), 0u);
    hits += memo->net().memo_hits();
  }
  EXPECT_GT(hits, 0u) << s.id << ": sequential worlds never hit the memo";

  const backtest::CombinedProgram combined =
      backtest::build_backtest_program(s.program, cands);
  scenario::ScenarioRun joint_memo = h.joint_world(combined);
  scenario::ScenarioRun joint_walk = h.joint_world(combined);
  joint_memo.net().replay_batch(h.workload(), h.memo());
  sdn::replay(joint_walk.net(), h.workload());
  memo_test::expect_same_world(joint_memo.net(), joint_walk.net(),
                             combined.candidate_count, s.id + " joint");
  EXPECT_GT(joint_memo.net().memo_hits(), 0u) << s.id;

  for (const bool multiquery : {false, true}) {
    backtest::BacktestConfig cfg;
    cfg.use_multiquery = multiquery;
    scenario::ScenarioHarness shipped(s);
    memo_test::WalkingHarness walking(s);
    EXPECT_EQ(memo_test::report_text(backtest::Backtester(cfg).run(shipped, cands)),
              memo_test::report_text(backtest::Backtester(cfg).run(walking, cands)))
        << s.id << (multiquery ? " joint" : " sequential");
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, PathMemoOracle,
                         ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5"));

}  // namespace
}  // namespace mp

// --- imp text frontend ----------------------------------------------------

#include "langs/imp/parser.h"

namespace mp {
namespace {

TEST(ImpParser, ParsesHandler) {
  auto prog = imp::parse_program(R"(
    # load balancer, buggy copy of the S2 block
    def packet_in(sw, pkt) {
      if (sw == 1 && pkt.dpt == 80 && pkt.bucket == 1) {
        install(match(dpt, bucket), out(2));
      }
      if (sw == 2 && pkt.dpt == 80) { install(match(dpt), out(1), no_packet_out); }
    }
  )");
  ASSERT_EQ(prog.blocks.size(), 2u);
  EXPECT_EQ(prog.blocks[0].guard.size(), 3u);
  EXPECT_EQ(prog.blocks[0].body[0].match_fields.size(), 2u);
  EXPECT_TRUE(prog.blocks[0].body[0].send_packet_out);
  EXPECT_FALSE(prog.blocks[1].body[0].send_packet_out);
  EXPECT_EQ(prog.name, "packet_in");
}

TEST(ImpParser, ParsedProgramExecutes) {
  auto prog = imp::parse_program(
      "def packet_in(sw, pkt) {"
      "  if (sw == 1 && pkt.dpt == 80) { install(match(dpt), out(3)); }"
      "}");
  sdn::Network net;
  net.add_switch(1);
  net.add_host({1, "H", 9, 0, 1, 3});
  imp::ImpController ctrl(net, prog);
  net.set_controller(&ctrl);
  sdn::Packet p;
  p.dpt = 80;
  net.inject(1, 1, p);
  const sdn::DeliveryStats& st = net.stats();
  EXPECT_EQ(st.per_host[st.hosts->number("H")], 1u);
  EXPECT_EQ(st.delivered("H", 80), 1u);
}

TEST(ImpParser, RejectsBadSyntax) {
  EXPECT_THROW(imp::parse_program("def x { }"), imp::ImpParseError);
  EXPECT_THROW(imp::parse_program(
                   "def packet_in(sw, pkt) { if (pkt.zzz == 1) { } }"),
               imp::ImpParseError);
  EXPECT_THROW(imp::parse_program(
                   "def packet_in(sw, pkt) { if (sw ~ 1) { } }"),
               imp::ImpParseError);
  EXPECT_THROW(imp::parse_program("def packet_in(sw, pkt) {"
                                  " if (sw == 99999999999999999999) { } }"),
               imp::ImpParseError);
}

TEST(ImpParser, RoundTripsWithRepairSpace) {
  auto prog = imp::parse_program(
      "def packet_in(sw, pkt) {"
      "  if (sw == 2 && pkt.dpt == 80) { install(match(dpt), out(2)); }"
      "}");
  imp::ImpSymptom sym;
  sym.sw = 3;
  sym.packet.dpt = 80;
  sym.want_port = 2;
  auto cands = imp::generate_repairs(prog, sym);
  EXPECT_GE(cands.size(), 4u);
}

}  // namespace
}  // namespace mp

// --- netcore text frontend ------------------------------------------------

#include "langs/netcore/parser.h"

namespace mp {
namespace {

TEST(NetcoreParser, ParsesCompositePolicy) {
  auto pol = netcore::parse_policy(R"(
    # Q1-style policy
    match(switch=1)[ match(dpt=80)[ match(bucket=1)[fwd(2)]
                                  | match(bucket=2)[fwd(3)] ]
                   | match(dpt=53)[fwd(3)] ]
    | match(switch=2)[ match(dpt=80)[fwd(1)] ]
  )");
  sdn::Packet p;
  p.dpt = 80;
  p.bucket = 2;
  EXPECT_EQ(eval_policy(pol, 1, 0, p), std::vector<int64_t>{3});
  EXPECT_EQ(eval_policy(pol, 2, 0, p), std::vector<int64_t>{1});
  p.dpt = 22;
  EXPECT_TRUE(eval_policy(pol, 1, 0, p).empty());
}

TEST(NetcoreParser, SequentialAndModify) {
  auto pol = netcore::parse_policy(
      "match(dpt=80)[fwd(1)] >> modify(dip=9)[fwd(2)]");
  sdn::Packet p;
  p.dpt = 80;
  EXPECT_EQ(eval_policy(pol, 1, 0, p), std::vector<int64_t>{2});
  p.dpt = 53;
  EXPECT_TRUE(eval_policy(pol, 1, 0, p).empty());
}

TEST(NetcoreParser, RejectsBadSyntax) {
  EXPECT_THROW(netcore::parse_policy("fwd()"), netcore::NetcoreParseError);
  EXPECT_THROW(netcore::parse_policy("match(zzz=1)[drop]"),
               netcore::NetcoreParseError);
  EXPECT_THROW(netcore::parse_policy("modify(switch=3)[drop]"),
               netcore::NetcoreParseError);
  EXPECT_THROW(netcore::parse_policy("fwd(1) fwd(2)"),
               netcore::NetcoreParseError);
  EXPECT_THROW(netcore::parse_policy("fwd(99999999999999999999)"),
               netcore::NetcoreParseError);
}

TEST(NetcoreParser, RoundTripThroughPrinter) {
  auto pol = netcore::parse_policy(
      "match(switch=2)[match(dpt=80)[fwd(2)]] | drop");
  EXPECT_FALSE(pol->to_string().empty());
  EXPECT_EQ(pol->size(), 5u);
}

}  // namespace
}  // namespace mp
