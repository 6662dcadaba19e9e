#include "langs/imp/parser.h"

#include <cctype>
#include <charconv>
#include <vector>

namespace mp::imp {

namespace {

struct Tok {
  enum class Kind : uint8_t { Ident, Int, Punct, End } kind = Kind::End;
  std::string text;
  int64_t ival = 0;
};

std::vector<Tok> lex(std::string_view src) {
  std::vector<Tok> out;
  size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < src.size() && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                                src[i] == '_')) {
        ++i;
      }
      out.push_back({Tok::Kind::Ident, std::string(src.substr(start, i - start)), 0});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < src.size() &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      size_t start = i;
      ++i;
      while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) ++i;
      Tok t{Tok::Kind::Int, std::string(src.substr(start, i - start)), 0};
      if (std::from_chars(src.data() + start, src.data() + i, t.ival).ec !=
          std::errc{}) {
        throw ImpParseError("integer literal out of range: " + t.text);
      }
      out.push_back(std::move(t));
      continue;
    }
    // Two-character punctuation first.
    static const char* two[] = {"==", "!=", "<=", ">=", "&&"};
    bool matched = false;
    for (const char* op : two) {
      if (src.substr(i, 2) == op) {
        out.push_back({Tok::Kind::Punct, op, 0});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.push_back({Tok::Kind::Punct, std::string(1, c), 0});
    ++i;
  }
  out.push_back({Tok::Kind::End, "", 0});
  return out;
}

sdn::Field field_by_name(const std::string& name) {
  for (sdn::Field f : {sdn::Field::InPort, sdn::Field::Sip, sdn::Field::Dip,
                       sdn::Field::Smc, sdn::Field::Dmc, sdn::Field::Spt,
                       sdn::Field::Dpt, sdn::Field::Proto, sdn::Field::Bucket}) {
    if (name == sdn::to_string(f)) return f;
  }
  throw ImpParseError("unknown packet field: " + name);
}

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

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
  const Tok& cur() const { return toks_[pos_]; }
  bool at_punct(const std::string& s) const {
    return cur().kind == Tok::Kind::Punct && cur().text == s;
  }
  bool at_ident(const std::string& s) const {
    return cur().kind == Tok::Kind::Ident && cur().text == s;
  }
  void expect_punct(const std::string& s) {
    if (!at_punct(s)) throw ImpParseError("expected '" + s + "', found '" + cur().text + "'");
    ++pos_;
  }
  std::string expect_ident(const std::string& want = "") {
    if (cur().kind != Tok::Kind::Ident ||
        (!want.empty() && cur().text != want)) {
      throw ImpParseError("expected identifier" +
                          (want.empty() ? "" : " '" + want + "'") +
                          ", found '" + cur().text + "'");
    }
    return toks_[pos_++].text;
  }

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

  std::vector<Tok> toks_;
  size_t pos_ = 0;
};

}  // namespace

Program parse_program(std::string_view src) { return Parser(src).parse(); }

}  // namespace mp::imp
