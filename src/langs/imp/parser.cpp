#include "langs/imp/parser.h"

#include <vector>

#include "langs/lexer.h"

namespace mp::imp {

namespace {

using langs::Tok;

class Parser : langs::TokenCursor<ImpParseError> {
 public:
  explicit Parser(std::string_view src)
      : TokenCursor(src, {"==", "!=", "<=", ">=", "&&"},
                    "unknown packet field: ") {}

  Program parse() {
    Program p;
    expect_ident("def");
    p.name = expect_ident();
    expect_punct("(");
    expect_ident("sw");
    expect_punct(",");
    expect_ident("pkt");
    expect_punct(")");
    expect_punct("{");
    while (!at_punct("}")) p.blocks.push_back(block());
    expect_punct("}");
    return p;
  }

 private:
  Operand operand() {
    if (cur().kind == Tok::Kind::Int) {
      return Operand::literal(toks_[pos_++].ival);
    }
    if (at_ident("sw")) {
      ++pos_;
      return Operand::switch_id();
    }
    expect_ident("pkt");
    expect_punct(".");
    return Operand::pkt(field_by_name(expect_ident()));
  }

  Cond cond() {
    Cond c;
    c.lhs = operand();
    const std::string op = cur().text;
    if (cur().kind != Tok::Kind::Punct) throw ImpParseError("expected comparison");
    ++pos_;
    if (op == "==") c.op = ndlog::CmpOp::Eq;
    else if (op == "!=") c.op = ndlog::CmpOp::Ne;
    else if (op == "<") c.op = ndlog::CmpOp::Lt;
    else if (op == ">") c.op = ndlog::CmpOp::Gt;
    else if (op == "<=") c.op = ndlog::CmpOp::Le;
    else if (op == ">=") c.op = ndlog::CmpOp::Ge;
    else throw ImpParseError("unknown comparison '" + op + "'");
    c.rhs = operand();
    return c;
  }

  Install install() {
    Install in;
    expect_ident("install");
    expect_punct("(");
    expect_ident("match");
    expect_punct("(");
    in.match_fields.push_back(field_by_name(expect_ident()));
    while (at_punct(",")) {
      ++pos_;
      in.match_fields.push_back(field_by_name(expect_ident()));
    }
    expect_punct(")");
    expect_punct(",");
    expect_ident("out");
    expect_punct("(");
    if (cur().kind != Tok::Kind::Int) throw ImpParseError("out() takes a port literal");
    in.out = Operand::literal(toks_[pos_++].ival);
    expect_punct(")");
    if (at_punct(",")) {
      ++pos_;
      expect_ident("no_packet_out");
      in.send_packet_out = false;
    }
    expect_punct(")");
    expect_punct(";");
    return in;
  }

  Block block() {
    Block b;
    expect_ident("if");
    expect_punct("(");
    b.guard.push_back(cond());
    while (at_punct("&&")) {
      ++pos_;
      b.guard.push_back(cond());
    }
    expect_punct(")");
    expect_punct("{");
    while (at_ident("install")) b.body.push_back(install());
    expect_punct("}");
    return b;
  }
};

}  // namespace

Program parse_program(std::string_view src) { return Parser(src).parse(); }

}  // namespace mp::imp
