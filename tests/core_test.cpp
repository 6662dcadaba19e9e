// Unit + property tests for util (Value, stats, strings, rng), the mini
// solver, and the meta model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <tuple>

#include "eval/engine.h"
#include "meta/extract.h"
#include "meta/meta_model.h"
#include "ndlog/parser.h"
#include "ndlog/validate.h"
#include "solver/mini_solver.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/value.h"

namespace mp {
namespace {

using ndlog::CmpOp;
using solver::ConstraintPool;
using solver::MiniSolver;
using solver::Term;

TEST(Value, IntAndStringBasics) {
  Value a(42), b(42), c(7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(c, a);
  EXPECT_EQ(a.to_string(), "42");
  Value s = Value::str("xyz");
  EXPECT_TRUE(s.is_str());
  EXPECT_NE(a, s);
  EXPECT_LT(a, s);  // ints order before strings
  EXPECT_TRUE(Value::wildcard().is_wildcard());
  EXPECT_FALSE(Value::str("x").is_wildcard());
}

TEST(Value, HashConsistency) {
  EXPECT_EQ(Value(5).hash(), Value(5).hash());
  EXPECT_EQ(Value::str("ab").hash(), Value::str("ab").hash());
  Row r1 = {Value(1), Value::str("a")};
  Row r2 = {Value(1), Value::str("a")};
  EXPECT_EQ(hash_row(r1), hash_row(r2));
}

TEST(Strings, SplitJoinPad) {
  EXPECT_EQ(split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(rpad("7", 3), "7  ");
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, RangesInBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.zipf(10), 10u);
  }
}

TEST(Rng, ZipfIsSkewed) {
  Rng r(5);
  size_t low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = r.zipf(100);
    if (v < 10) ++low;
    if (v >= 90) ++high;
  }
  EXPECT_GT(low, high * 2);
}

TEST(Stats, KsCriticalShrinksWithSamples) {
  EXPECT_GT(ks_critical(10, 10), ks_critical(1000, 1000));
  EXPECT_NEAR(ks_critical(1000, 1000), 1.3581 * std::sqrt(2.0 / 1000), 1e-3);
}

TEST(Stats, KsPValueMonotone) {
  EXPECT_GT(ks_pvalue(0.01, 100, 100), ks_pvalue(0.5, 100, 100));
  EXPECT_LE(ks_pvalue(0.9, 1000, 1000), 1e-6);
}

TEST(Stats, DistributionGateDetectsShift) {
  const std::vector<uint64_t> base(50, 100), same(50, 100);
  std::vector<uint64_t> shifted(50, 100);
  shifted[0] = 400;
  EXPECT_FALSE(ks_test(base, same).significant);
  EXPECT_TRUE(ks_test(base, shifted).significant);
}

TEST(Stats, DistributionSmallChangeInsignificant) {
  // A new host past the last one: the shorter side counts 0 there.
  const std::vector<uint64_t> base(50, 200);
  std::vector<uint64_t> nudged(51, 200);
  nudged[50] = 5;
  EXPECT_FALSE(ks_test(base, nudged).significant);
}

// --- solver ---------------------------------------------------------------

TEST(Solver, SolvesSimpleEquality) {
  ConstraintPool pool;
  pool.eq("x", Value(3));
  auto a = MiniSolver::solve(pool);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->at("x"), Value(3));
}

TEST(Solver, DetectsContradiction) {
  ConstraintPool pool;
  pool.eq("x", Value(3));
  pool.eq("x", Value(4));
  EXPECT_FALSE(MiniSolver::satisfiable(pool));
}

TEST(Solver, PropagatesEqualityChains) {
  ConstraintPool pool;
  pool.add(Term::variable("a"), CmpOp::Eq, Term::variable("b"));
  pool.add(Term::variable("b"), CmpOp::Eq, Term::variable("c"));
  pool.eq("c", Value(9));
  auto a = MiniSolver::solve(pool);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->at("a"), Value(9));
}

TEST(Solver, OrderingChain) {
  ConstraintPool pool;
  pool.add(Term::variable("a"), CmpOp::Lt, Term::variable("b"));
  pool.add(Term::variable("b"), CmpOp::Lt, Term::variable("c"));
  pool.add(Term::variable("c"), CmpOp::Le, Term::constant(Value(2)));
  pool.add(Term::variable("a"), CmpOp::Ge, Term::constant(Value(0)));
  auto a = MiniSolver::solve(pool);
  ASSERT_TRUE(a);
  EXPECT_LT(a->at("a").as_int(), a->at("b").as_int());
  EXPECT_LT(a->at("b").as_int(), a->at("c").as_int());
  EXPECT_LE(a->at("c").as_int(), 2);
}

TEST(Solver, ImpossibleOrderingCycle) {
  ConstraintPool pool;
  pool.add(Term::variable("a"), CmpOp::Lt, Term::variable("b"));
  pool.add(Term::variable("b"), CmpOp::Lt, Term::variable("a"));
  EXPECT_FALSE(MiniSolver::satisfiable(pool));
}

TEST(Solver, SelfComparisons) {
  ConstraintPool lt;
  lt.add(Term::variable("x"), CmpOp::Lt, Term::variable("x"));
  EXPECT_FALSE(MiniSolver::satisfiable(lt));
  ConstraintPool le;
  le.add(Term::variable("x"), CmpOp::Le, Term::variable("x"));
  EXPECT_TRUE(MiniSolver::satisfiable(le));
}

TEST(Solver, ExclusionsRespected) {
  ConstraintPool pool;
  pool.add(Term::variable("x"), CmpOp::Ge, Term::constant(Value(0)));
  pool.add(Term::variable("x"), CmpOp::Le, Term::constant(Value(2)));
  pool.add(Term::variable("x"), CmpOp::Ne, Term::constant(Value(0)));
  pool.add(Term::variable("x"), CmpOp::Ne, Term::constant(Value(1)));
  auto a = MiniSolver::solve(pool);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->at("x"), Value(2));
}

TEST(Solver, StringEquality) {
  ConstraintPool pool;
  pool.eq("s", Value::str("C"));
  auto a = MiniSolver::solve(pool);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->at("s"), Value::str("C"));
  pool.add(Term::variable("s"), CmpOp::Ne, Term::constant(Value::str("C")));
  EXPECT_FALSE(MiniSolver::satisfiable(pool));
}

TEST(Solver, NegationFindsViolation) {
  ConstraintPool keep, negate;
  negate.add(Term::constant(Value(6)), CmpOp::Lt, Term::variable("K"));
  auto a = MiniSolver::solve_negation(keep, negate);
  ASSERT_TRUE(a);
  EXPECT_FALSE(ndlog::cmp_eval(CmpOp::Lt, Value(6), a->at("K")));
}

// Constants at the int64 limits. A strict bound past a limit cannot be
// represented, so the problem is infeasible rather than wrapped around;
// bounds at a limit that can be met are, without stepping past it.
TEST(Solver, BoundsAtInt64Limits) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto solve = [](int64_t x, CmpOp op) {
    ConstraintPool pool;
    pool.add(Term::constant(Value(x)), op, Term::variable("K"));
    return MiniSolver::solve(pool);
  };
  EXPECT_FALSE(solve(kMax, CmpOp::Lt));  // K > kMax
  EXPECT_FALSE(solve(kMin, CmpOp::Gt));  // K < kMin
  ConstraintPool past_max;
  past_max.add(Term::variable("K"), CmpOp::Gt, Term::constant(Value(kMax)));
  EXPECT_FALSE(MiniSolver::satisfiable(past_max));
  ConstraintPool past_min;
  past_min.add(Term::variable("K"), CmpOp::Lt, Term::constant(Value(kMin)));
  EXPECT_FALSE(MiniSolver::satisfiable(past_min));
  // Ordered through another variable: b < a <= kMin, b > a >= kMax.
  for (const auto& [op, bound, limit] :
       {std::tuple{CmpOp::Lt, CmpOp::Le, kMin},
        std::tuple{CmpOp::Gt, CmpOp::Ge, kMax}}) {
    ConstraintPool chain;
    chain.add(Term::variable("b"), op, Term::variable("a"));
    chain.add(Term::variable("a"), bound, Term::constant(Value(limit)));
    EXPECT_FALSE(MiniSolver::satisfiable(chain)) << limit;
  }
  for (const auto& [x, op] :
       {std::pair{kMax, CmpOp::Ge}, std::pair{kMax, CmpOp::Ne},
        std::pair{kMin, CmpOp::Le}, std::pair{kMin, CmpOp::Ne}}) {
    const auto a = solve(x, op);
    ASSERT_TRUE(a) << x << " " << ndlog::to_string(op);
    EXPECT_TRUE(ndlog::cmp_eval(op, Value(x), a->at("K")));
  }
  // The repair engine's break path: violate (x >= K) at kMax, (x <= K)
  // at kMin.
  for (const auto& [x, op] :
       {std::pair{kMax, CmpOp::Ge}, std::pair{kMin, CmpOp::Le}}) {
    ConstraintPool keep, negate;
    negate.add(Term::constant(Value(x)), op, Term::variable("K"));
    EXPECT_FALSE(MiniSolver::solve_negation(keep, negate)) << x;
  }
}

// The solver searches [-1e9, 1e9] first and all of int64 only when the
// pool has no solution there: values outside the window are found, and
// pools solvable inside it keep their small values.
TEST(Solver, WindowIsAPreferenceNotAConstraint) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // K >= 1000000001, K == 4294967295 (a 32-bit IP as an int), and the
  // limits themselves.
  for (const auto& [op, x] :
       {std::pair{CmpOp::Ge, int64_t{1'000'000'001}},
        std::pair{CmpOp::Eq, int64_t{4'294'967'295}},
        std::pair{CmpOp::Le, int64_t{-1'000'000'001}},
        std::pair{CmpOp::Eq, kMax}, std::pair{CmpOp::Eq, kMin}}) {
    ConstraintPool pool;
    pool.add(Term::variable("K"), op, Term::constant(Value(x)));
    const auto a = MiniSolver::solve(pool);
    ASSERT_TRUE(a) << ndlog::to_string(op) << " " << x;
    EXPECT_TRUE(ndlog::cmp_eval(op, a->at("K"), Value(x)));
    EXPECT_EQ(a->at("K"), Value(x)) << "the value nearest 0";
  }
  // `<` chains that cross 1e9 upward and -1e9 downward.
  for (const auto& [bound, start, op] :
       {std::tuple{CmpOp::Ge, int64_t{999'999'999}, CmpOp::Lt},
        std::tuple{CmpOp::Le, int64_t{-999'999'999}, CmpOp::Gt}}) {
    ConstraintPool chain;
    chain.add(Term::variable("a"), bound, Term::constant(Value(start)));
    chain.add(Term::variable("a"), op, Term::variable("b"));
    chain.add(Term::variable("b"), op, Term::variable("c"));
    const auto a = MiniSolver::solve(chain);
    ASSERT_TRUE(a) << start;
    EXPECT_TRUE(MiniSolver::check(chain, *a)) << start;
    const int64_t step = op == CmpOp::Lt ? 1 : -1;
    EXPECT_EQ(a->at("c"), Value(start + 2 * step)) << start;
  }
  // The break path past the window: violate (K <= 4294967295).
  ConstraintPool keep, negate;
  negate.add(Term::variable("K"), CmpOp::Le,
             Term::constant(Value(int64_t{4'294'967'295})));
  const auto broken = MiniSolver::solve_negation(keep, negate);
  ASSERT_TRUE(broken);
  EXPECT_EQ(broken->at("K"), Value(int64_t{4'294'967'296}));
  // Inside the window the picks are the small ones.
  ConstraintPool small;
  small.add(Term::variable("a"), CmpOp::Lt, Term::variable("b"));
  small.add(Term::variable("b"), CmpOp::Gt, Term::constant(Value(6)));
  const auto picked = MiniSolver::solve(small);
  ASSERT_TRUE(picked);
  EXPECT_EQ(picked->at("a"), Value(0));
  EXPECT_EQ(picked->at("b"), Value(7));
}

// Property sweep: for every operator and constant, the solved value must
// actually satisfy (x op K) -- the core contract the repair engine uses.
class SolverOpSweep
    : public ::testing::TestWithParam<std::tuple<CmpOp, int64_t>> {};

TEST_P(SolverOpSweep, SolutionSatisfiesConstraint) {
  const auto [op, x] = GetParam();
  ConstraintPool pool;
  pool.add(Term::constant(Value(x)), op, Term::variable("K"));
  auto a = MiniSolver::solve(pool);
  ASSERT_TRUE(a) << "op=" << ndlog::to_string(op) << " x=" << x;
  EXPECT_TRUE(ndlog::cmp_eval(op, Value(x), a->at("K")));
}

TEST_P(SolverOpSweep, NegationViolatesConstraint) {
  const auto [op, x] = GetParam();
  ConstraintPool keep, negate;
  negate.add(Term::constant(Value(x)), op, Term::variable("K"));
  auto a = MiniSolver::solve_negation(keep, negate);
  ASSERT_TRUE(a);
  EXPECT_FALSE(ndlog::cmp_eval(op, Value(x), a->at("K")));
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndValues, SolverOpSweep,
    ::testing::Combine(::testing::ValuesIn(ndlog::all_cmp_ops()),
                       ::testing::Values<int64_t>(-7, -1, 0, 1, 2, 6, 80,
                                                  2008)));

// --- meta model -------------------------------------------------------

TEST(MetaModel, PaperCounts) {
  // Section 3.2 / Section 5.8: uDlog 15 rules / 13 tuples, NDlog 23/23,
  // Trema 42/32, Pyretic 53/41.
  EXPECT_EQ(meta::udlog_meta_model().rule_count(), 15u);
  EXPECT_EQ(meta::udlog_meta_model().tuple_count(), 13u);
  EXPECT_EQ(meta::ndlog_meta_model().rule_count(), 23u);
  EXPECT_EQ(meta::ndlog_meta_model().tuple_count(), 23u);
  EXPECT_EQ(meta::trema_meta_model().rule_count(), 42u);
  EXPECT_EQ(meta::trema_meta_model().tuple_count(), 32u);
  EXPECT_EQ(meta::pyretic_meta_model().rule_count(), 53u);
  EXPECT_EQ(meta::pyretic_meta_model().tuple_count(), 41u);
}

TEST(MetaModel, LookupAndUniqueness) {
  const auto& m = meta::udlog_meta_model();
  EXPECT_NE(m.find_rule("h2"), nullptr);
  EXPECT_EQ(m.find_rule("zz"), nullptr);
  for (auto lang : {meta::Language::UDlog, meta::Language::NDlog,
                    meta::Language::Trema, meta::Language::Pyretic}) {
    const auto& model = meta::meta_model(lang);
    std::set<std::string> names;
    for (const auto& r : model.rules) {
      EXPECT_TRUE(names.insert(r.name).second)
          << to_string(lang) << " duplicate rule " << r.name;
    }
  }
}

TEST(MetaExtract, FindsAllSyntacticSites) {
  auto p = ndlog::parse_program(
      "table A/3.\nevent B/3.\n"
      "r1 A(@X,P,Q) :- B(@X,P,V), P == 2, V != 3, Q := 7.");
  auto tuples = meta::program_meta_tuples(p);
  size_t heads = 0, preds = 0, consts = 0, opers = 0, assigns = 0;
  for (const auto& t : tuples) {
    switch (t.kind) {
      case meta::MetaKind::HeadFunc: ++heads; break;
      case meta::MetaKind::PredFunc: ++preds; break;
      case meta::MetaKind::Const: ++consts; break;
      case meta::MetaKind::Oper: ++opers; break;
      case meta::MetaKind::Assign: ++assigns; break;
      default: break;
    }
  }
  EXPECT_EQ(heads, 1u);
  EXPECT_EQ(preds, 1u);
  EXPECT_EQ(consts, 3u);  // 2, 3, 7
  EXPECT_EQ(opers, 2u);
  EXPECT_EQ(assigns, 1u);
  EXPECT_EQ(meta::constants_of(p).size(), 3u);
  EXPECT_EQ(meta::operators_of(p).size(), 2u);
}

TEST(MetaExtract, SyntaxRefRoundTrip) {
  meta::SyntaxRef ref{"r7", meta::SyntaxRef::Site::SelRhs, 0, 1};
  EXPECT_NE(ref.to_string().find("r7"), std::string::npos);
  meta::SyntaxRef same = ref;
  EXPECT_TRUE(ref == same);
}

}  // namespace
}  // namespace mp

// --- meta program (Figure 4): program-as-data round trip ----------------
#include "meta/meta_program.h"  // NOLINT: test-only late include


namespace mp {
namespace {

// Meta-level evaluation (driven purely by meta tuples) must agree with the
// direct engine on uDlog-fragment programs.
class MetaProgramAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(MetaProgramAgreement, MetaEvalMatchesEngine) {
  auto program = ndlog::parse_program(GetParam());
  ASSERT_TRUE(meta::in_udlog_fragment(program));
  auto mp_prog = meta::build_meta_program(program);
  ASSERT_FALSE(mp_prog.facts.empty());

  std::vector<eval::Tuple> base = {
      {"B", {Value(1), Value(2), Value(5)}},
      {"B", {Value(1), Value(3), Value(7)}},
      {"B", {Value(2), Value(2), Value(9)}},
      {"Cfg", {Value(1), Value(2), Value(100)}},
      {"Cfg", {Value(1), Value(9), Value(200)}},
  };
  // Engine evaluation.
  eval::Engine engine(program);
  for (const auto& t : base) {
    if (program.find_table(t.table) != nullptr) engine.insert(t);
  }
  std::set<std::string> engine_derived;
  for (const auto& decl : program.tables) {
    bool is_base = decl.name == "B" || decl.name == "Cfg";
    if (is_base) continue;
    for (const auto& t : engine.all_tuples(decl.name)) {
      engine_derived.insert(t.to_string());
    }
  }
  // Meta-level evaluation from the meta tuples alone.
  std::vector<eval::Tuple> usable;
  for (const auto& t : base) {
    if (program.find_table(t.table) != nullptr) usable.push_back(t);
  }
  std::set<std::string> meta_derived;
  for (const auto& t : meta::meta_eval(program, mp_prog, usable)) {
    meta_derived.insert(t.to_string());
  }
  EXPECT_EQ(engine_derived, meta_derived);
}

INSTANTIATE_TEST_SUITE_P(
    Fragment, MetaProgramAgreement,
    ::testing::Values(
        "table A/3.\ntable B/3.\nr1 A(@X,P,V) :- B(@X,P,V), P == 2.",
        "table A/3.\ntable B/3.\nr1 A(@X,P,V) :- B(@X,P,V), V > 4, V < 9.",
        "table A/3.\ntable B/3.\nr1 A(@X,P,Q) :- B(@X,P,V), P != 9, Q := 7.",
        "table A/4.\ntable B/3.\ntable Cfg/3.\n"
        "r1 A(@X,P,V,W) :- B(@X,P,V), Cfg(@X,P,W), V >= 5.",
        "table A/3.\ntable M/3.\ntable B/3.\n"
        "r1 M(@X,P,V) :- B(@X,P,V), P >= 2.\n"
        "r2 A(@X,P,V) :- M(@X,P,V), V <= 7."));

TEST(MetaProgram, MutatedProgramStaysInAgreement) {
  // Apply a repair-style change, re-extract the meta program, re-check
  // agreement: the "program as data" view follows program edits.
  auto program = ndlog::parse_program(
      "table A/3.\ntable B/3.\nr1 A(@X,P,V) :- B(@X,P,V), P == 2.");
  ndlog::Rule* r = program.find_rule("r1");
  r->sels[0].rhs = ndlog::Expr::constant(Value(3));
  auto mp_prog = meta::build_meta_program(program);
  std::vector<eval::Tuple> base = {{"B", {Value(1), Value(3), Value(8)}}};
  eval::Engine engine(program);
  engine.insert(base[0]);
  auto meta_out = meta::meta_eval(program, mp_prog, base);
  ASSERT_EQ(meta_out.size(), 1u);
  EXPECT_TRUE(engine.exists(Value(1), "A", meta_out[0].row));
}

TEST(MetaProgram, FragmentDetection) {
  EXPECT_TRUE(meta::in_udlog_fragment(ndlog::parse_program(
      "table A/2.\ntable B/2.\nr1 A(@X,V) :- B(@X,V), V > 0.")));
  EXPECT_FALSE(meta::in_udlog_fragment(ndlog::parse_program(
      "table A/2.\ntable B/2.\nr1 A(@X,Q) :- B(@X,V), Q := V + 1.")));
}

}  // namespace
}  // namespace mp

// --- property: engine vs meta-eval on random fragment programs ----------

#include "util/rng.h"

namespace mp {
namespace {

// Generates a random valid uDlog-fragment program over base tables B/3 and
// Cfg/3 with derived tables D0..Dk, all atoms sharing the location var.
ndlog::Program random_fragment_program(Rng& rng) {
  std::string src = "table B/3.\ntable Cfg/3.\n";
  const size_t n_rules = 1 + rng.below(4);
  for (size_t i = 0; i < n_rules; ++i) {
    src += "table D" + std::to_string(i) + "/3.\n";
  }
  static const char* ops[] = {"==", "!=", "<", ">", "<=", ">="};
  for (size_t i = 0; i < n_rules; ++i) {
    const bool join = rng.chance(0.4);
    std::string body = "B(@X,P,V)";
    if (join) body += ", Cfg(@X,P,W)";
    std::string sels;
    const size_t n_sels = 1 + rng.below(2);
    for (size_t k = 0; k < n_sels; ++k) {
      const char* var = rng.chance(0.5) ? "P" : "V";
      sels += std::string(", ") + var + " " + ops[rng.below(6)] + " " +
              std::to_string(rng.range(0, 9));
    }
    const std::string head_v = join && rng.chance(0.5) ? "W" : "V";
    src += "r" + std::to_string(i) + " D" + std::to_string(i) +
           "(@X,P," + head_v + ") :- " + body + sels + ".\n";
  }
  return ndlog::parse_program(src);
}

class EngineMetaEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineMetaEquivalence, RandomProgramsAgree) {
  Rng rng(GetParam());
  auto program = random_fragment_program(rng);
  ASSERT_TRUE(ndlog::validate(program).empty()) << program.to_string();
  ASSERT_TRUE(meta::in_udlog_fragment(program));
  auto mp_prog = meta::build_meta_program(program);

  std::vector<eval::Tuple> base;
  for (int i = 0; i < 8; ++i) {
    base.push_back({"B", {Value(rng.range(1, 2)), Value(rng.range(0, 9)),
                          Value(rng.range(0, 9))}});
  }
  for (int i = 0; i < 4; ++i) {
    base.push_back({"Cfg", {Value(rng.range(1, 2)), Value(rng.range(0, 9)),
                            Value(rng.range(0, 9))}});
  }
  eval::Engine engine(program);
  for (const auto& t : base) engine.insert(t);
  std::set<std::string> engine_out;
  for (const auto& decl : program.tables) {
    if (decl.name == "B" || decl.name == "Cfg") continue;
    for (const auto& t : engine.all_tuples(decl.name)) {
      engine_out.insert(t.to_string());
    }
  }
  std::set<std::string> meta_out;
  for (const auto& t : meta::meta_eval(program, mp_prog, base)) {
    meta_out.insert(t.to_string());
  }
  EXPECT_EQ(engine_out, meta_out) << program.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineMetaEquivalence,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace mp
