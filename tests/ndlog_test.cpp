// Unit tests for the NDlog frontend: lexer, parser, printer, validation;
// and a seeded hostile-input sweep over the NDlog, Imp and NetCore parsers.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "langs/imp/parser.h"
#include "langs/netcore/parser.h"
#include "ndlog/lexer.h"
#include "ndlog/parser.h"
#include "ndlog/validate.h"
#include "scenarios/scenario.h"
#include "util/rng.h"

namespace mp::ndlog {
namespace {

TEST(Lexer, TokenizesRule) {
  auto toks = lex("r1 A(@X,P) :- B(@X,Q), Q == 2, P := Q + 1.");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks.front().kind, TokKind::Ident);
  EXPECT_EQ(toks.front().text, "r1");
  EXPECT_EQ(toks.back().kind, TokKind::End);
}

TEST(Lexer, SkipsComments) {
  auto toks = lex("// a comment\nr1 // trailing\n");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "r1");
}

TEST(Lexer, TwoCharOperators) {
  auto toks = lex(":- := == != <= >=");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, TokKind::Derives);
  EXPECT_EQ(toks[1].kind, TokKind::Assign);
  EXPECT_EQ(toks[2].kind, TokKind::EqEq);
  EXPECT_EQ(toks[3].kind, TokKind::NotEq);
  EXPECT_EQ(toks[4].kind, TokKind::Le);
  EXPECT_EQ(toks[5].kind, TokKind::Ge);
}

TEST(Lexer, ReportsPosition) {
  try {
    lex("r1 $bad");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.col(), 4u);
  }
}

TEST(Parser, ParsesTableDecl) {
  Program p = parse_program("table FlowTable/4 keys(0,1).\nevent PacketIn/3.");
  ASSERT_EQ(p.tables.size(), 2u);
  EXPECT_EQ(p.tables[0].name, "FlowTable");
  EXPECT_EQ(p.tables[0].arity, 4u);
  EXPECT_EQ(p.tables[0].keys, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(p.tables[0].kind, TableKind::Materialized);
  EXPECT_EQ(p.tables[1].kind, TableKind::Event);
}

TEST(Parser, ParsesRuleShape) {
  Rule r = parse_rule(
      "r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, "
      "Hdr == 80, Prt := 2.");
  EXPECT_EQ(r.name, "r7");
  EXPECT_EQ(r.head.table, "FlowTable");
  ASSERT_EQ(r.body.size(), 1u);
  EXPECT_EQ(r.body[0].table, "PacketIn");
  ASSERT_EQ(r.sels.size(), 2u);
  EXPECT_EQ(r.sels[0].op, CmpOp::Eq);
  ASSERT_EQ(r.assigns.size(), 1u);
  EXPECT_EQ(r.assigns[0].var, "Prt");
}

TEST(Parser, NegativeConstantsAndWildcards) {
  Rule r = parse_rule("r A(@X,P,Q) :- B(@X,Y), P := -1, Q := *.");
  ASSERT_EQ(r.assigns.size(), 2u);
  ASSERT_TRUE(r.assigns[0].expr->is_const());
  EXPECT_EQ(r.assigns[0].expr->cval().as_int(), -1);
  ASSERT_TRUE(r.assigns[1].expr->is_const());
  EXPECT_TRUE(r.assigns[1].expr->cval().is_wildcard());
}

TEST(Parser, ArithmeticPrecedence) {
  Rule r = parse_rule("r A(@X,P) :- B(@X,Y), P := Y + 2 * 3.");
  const Expr& e = *r.assigns[0].expr;
  ASSERT_EQ(e.kind(), Expr::Kind::Binary);
  EXPECT_EQ(e.op(), ArithOp::Add);
  EXPECT_EQ(e.rhs()->op(), ArithOp::Mul);
}

TEST(Parser, RoundTripsThroughPrinter) {
  const char* src =
      "r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), "
      "WebLoadBalancer(@C,Hdr,Prt), Swi == 1, Hdr == 80.";
  Rule r = parse_rule(src);
  Rule r2 = parse_rule(r.to_string());
  EXPECT_EQ(r.to_string(), r2.to_string());
}

TEST(Parser, RejectsGarbage) {
  EXPECT_THROW(parse_rule("r1 A(@X :- B(@X)."), ParseError);
  EXPECT_THROW(parse_rule("r1 A(@X) :- ."), ParseError);
  EXPECT_THROW(parse_program("table Foo."), ParseError);
  EXPECT_THROW(parse_rule("r1 A(@X,P) :- B(@X), P := 99999999999999999999."),
               ParseError);
}

TEST(Validate, AcceptsWellFormedProgram) {
  Program p = parse_program(
      "table A/2.\nevent B/2.\n"
      "r1 A(@X,P) :- B(@X,Q), Q == 2, P := Q + 1.");
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, CatchesUndeclaredTable) {
  Program p = parse_program("table A/2.\nr1 A(@X,P) :- B(@X,P), P == 1.");
  auto errs = validate(p);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("undeclared"), std::string::npos);
}

TEST(Validate, CatchesArityMismatch) {
  Program p = parse_program("table A/2.\nevent B/3.\nr1 A(@X,P,Q) :- B(@X,P,Q).");
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, CatchesUnboundVariables) {
  Program p = parse_program("table A/2.\nevent B/2.\nr1 A(@X,Z) :- B(@X,Q).");
  auto errs = validate(p);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("unbound"), std::string::npos);
}

TEST(Validate, CatchesSelectionOnUnbound) {
  Program p =
      parse_program("table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), W == 2.");
  EXPECT_FALSE(validate(p).empty());
}

// The full diagnostic list, text and order, for a program that trips every
// check: table checks first, then each rule's checks in rule order.
TEST(Validate, DiagnosticsTextAndOrder) {
  Program p = parse_program(
      "table A/2.\ntable A/3.\ntable K/2 keys(5).\n"
      "r1 A(@X,P) :- B(@X,P), P == 1.\n"
      "r1 A(@X,P,Q) :- A(@X,P), Q := W + 1.\n"
      "r3 A(@X,P) :- A(@X,Q), R == 2.");
  p.tables.push_back(TableDecl{"Z", 0, {}, TableKind::Materialized});
  Rule bare;
  bare.name = "r4";
  bare.head.table = "A";
  bare.head.args = {Expr::var("X"),
                    Expr::binary(ArithOp::Add, Expr::var("Y"),
                                 Expr::constant(Value(1)))};
  p.rules.push_back(bare);
  const std::vector<std::string> want = {
      "duplicate table declaration: A",
      "table K: key column 5 out of range",
      "table Z must have arity >= 1 (location)",
      "r1: undeclared table B in body",
      "duplicate rule name: r1",
      "r1: A arity mismatch (3 vs declared 2)",
      "r1: assignment uses unbound variable W",
      "r3: selection 'R == 2' uses unbound variable R",
      "r3: head uses unbound variable P",
      "r4: rule has no body atoms",
      "r4: head argument must be a variable or constant, found expression "
      "'Y + 1'",
      "r4: head uses unbound variable X",
      "r4: head uses unbound variable Y",
  };
  EXPECT_EQ(validate(p), want);
}

TEST(Ast, CmpEval) {
  EXPECT_TRUE(cmp_eval(CmpOp::Eq, Value(3), Value(3)));
  EXPECT_TRUE(cmp_eval(CmpOp::Ne, Value(3), Value(4)));
  EXPECT_TRUE(cmp_eval(CmpOp::Lt, Value(3), Value(4)));
  EXPECT_TRUE(cmp_eval(CmpOp::Ge, Value(4), Value(4)));
  EXPECT_FALSE(cmp_eval(CmpOp::Gt, Value(4), Value(4)));
  EXPECT_TRUE(cmp_eval(CmpOp::Eq, Value::str("a"), Value::str("a")));
}

TEST(Ast, NegateOp) {
  for (CmpOp op : all_cmp_ops()) {
    // negate(negate(op)) == op, and exactly one of (op, negate(op)) holds.
    EXPECT_EQ(negate(negate(op)), op);
    EXPECT_NE(cmp_eval(op, Value(1), Value(2)),
              cmp_eval(negate(op), Value(1), Value(2)));
  }
}

TEST(Ast, ProgramFindersAndPrinting) {
  Program p = parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,P) :- B(@X,P), P == 1.");
  EXPECT_NE(p.find_table("A"), nullptr);
  EXPECT_EQ(p.find_table("Z"), nullptr);
  EXPECT_NE(p.find_rule("r1"), nullptr);
  EXPECT_EQ(p.find_rule("zz"), nullptr);
  EXPECT_EQ(p.line_count(), 3u);
  Program p2 = parse_program(p.to_string());
  EXPECT_EQ(p.to_string(), p2.to_string());
}

// --- hostile input ---------------------------------------------------------

// `src` with 1-4 seeded byte mutations: substitutions (with a byte of the
// languages' punctuation or any byte), insertions, deletions, truncations
// and 20-digit literals, which overflow int64 in either sign.
std::string mutate(const std::string& src, Rng& rng) {
  static const std::string kBytes = "()[]{}<>=!:;.,@\"*+-/&|#_ \n0123456789aZ";
  std::string out = src;
  const size_t n = 1 + rng.below(4);
  for (size_t k = 0; k < n; ++k) {
    const size_t at = rng.below(out.size() + 1);
    auto byte = [&] {
      return rng.chance(0.7) ? kBytes[rng.below(kBytes.size())]
                             : static_cast<char>(rng.below(256));
    };
    switch (rng.below(5)) {
      case 0:  // substitution
        if (at < out.size()) out[at] = byte();
        break;
      case 1:  // insertion
        out.insert(at, 1, byte());
        break;
      case 2:  // deletion of a short run
        if (at < out.size()) out.erase(at, 1 + rng.below(8));
        break;
      case 3:  // truncation
        out.resize(at);
        break;
      default:  // 20-digit literal
        out.insert(at, rng.chance(0.5) ? "99999999999999999999"
                                       : "-18446744073709551616");
        break;
    }
  }
  return out;
}

// Runs `parse` on `cases` mutations of each seed source. Every case must
// parse or throw the language's parse error; anything else (another
// exception type, or under ASan/UBSan an out-of-bounds read or an
// overflow) fails. Returns how many cases parsed.
template <typename Error>
size_t sweep(const char* lang, const std::vector<std::string>& seeds,
             size_t cases, uint64_t seed,
             const std::function<void(const std::string&)>& parse) {
  Rng rng(seed);
  size_t parsed = 0;
  for (size_t i = 0; i < cases; ++i) {
    const std::string input = mutate(seeds[i % seeds.size()], rng);
    try {
      parse(input);
      ++parsed;
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << lang << " case " << i << " threw " << e.what()
                    << " instead of its parse error on:\n" << input;
    }
  }
  return parsed;
}

TEST(HostileInput, SeededByteMutationsParseOrThrowParseError) {
  constexpr size_t kCases = 10000;  // per language
  std::vector<std::string> ndlog_seeds = {
      "table A/3 keys(0,1).\nevent B/3.\n"
      "r1 A(@X,P,Q) :- B(@X,P,V), P == 2, V != -3, Q := (P + 7) * V / 2.\n",
      "table S/2.\nr1 S(@X,\"s\") :- S(@X,Y), Y >= 5, Z := *.\n"};
  for (const scenario::Scenario& s : scenario::all_scenarios()) {
    ndlog_seeds.push_back(s.program.to_string());
  }
  size_t engines = 0;
  const size_t ndlog_parsed = sweep<ParseError>(
      "NDlog", ndlog_seeds, kCases, 8, [&](const std::string& src) {
        Program p = parse_program(src);
        if (!is_valid(p) || p.tables.empty()) return;
        // What validates must run: build an engine and take one insert.
        const TableDecl& t = p.tables.front();
        eval::Engine e(std::move(p));
        e.insert(eval::Tuple{t.name, Row(t.arity, Value(1))});
        ++engines;
      });
  const size_t imp_parsed = sweep<imp::ImpParseError>(
      "Imp",
      {"# load balancer\n"
       "def packet_in(sw, pkt) {\n"
       "  if (sw == 1 && pkt.dpt == 80 && pkt.bucket == 1) {\n"
       "    install(match(dpt, bucket), out(2));\n  }\n"
       "  if (sw != 2 && pkt.sip < 6) { install(match(dpt), out(-1),"
       " no_packet_out); }\n}\n"},
      kCases, 9, [](const std::string& src) { imp::parse_program(src); });
  const size_t netcore_parsed = sweep<netcore::NetcoreParseError>(
      "NetCore",
      {"# Q1-style policy\n"
       "match(switch=1)[ match(dpt=80)[ match(bucket=1)[fwd(2)]\n"
       "                               | match(bucket=2)[fwd(3)] ]\n"
       "               | match(dpt=53)[fwd(3)] ]\n"
       "| match(switch=2)[ match(dpt=80)[fwd(1)] ] | drop\n",
       "match(dpt=80)[fwd(1)] >> modify(dip=9)[fwd(2)]"},
      kCases, 10, [](const std::string& src) { netcore::parse_policy(src); });
  // The sweep reaches past the parsers' front doors: some mutants parse,
  // and some NDlog mutants validate and run.
  EXPECT_GT(ndlog_parsed, 0u);
  EXPECT_GT(engines, 0u);
  EXPECT_GT(imp_parsed, 0u);
  EXPECT_GT(netcore_parsed, 0u);
}

}  // namespace
}  // namespace mp::ndlog
