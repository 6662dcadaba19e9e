// Unit tests for the NDlog frontend: lexer, parser, printer, validation.
#include <gtest/gtest.h>

#include "ndlog/lexer.h"
#include "ndlog/parser.h"
#include "ndlog/validate.h"

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

}  // namespace
}  // namespace mp::ndlog
