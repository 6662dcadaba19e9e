#include "langs/netcore/parser.h"

#include "langs/lexer.h"

namespace mp::netcore {

namespace {

using langs::Tok;

class Parser : langs::TokenCursor<NetcoreParseError> {
 public:
  explicit Parser(std::string_view src)
      : TokenCursor(src, {">>"}, "unknown field: ") {}

  PolicyPtr parse() {
    PolicyPtr p = policy();
    if (cur().kind != Tok::Kind::End) {
      throw NetcoreParseError("trailing input: '" + cur().text + "'");
    }
    return p;
  }

 private:
  int64_t expect_int() {
    if (cur().kind != Tok::Kind::Int) {
      throw NetcoreParseError("expected integer, found '" + cur().text + "'");
    }
    return toks_[pos_++].ival;
  }

  PolicyPtr policy() {
    PolicyPtr p = seq();
    while (at_punct("|")) {
      ++pos_;
      p = Policy::par(std::move(p), seq());
    }
    return p;
  }

  PolicyPtr seq() {
    PolicyPtr p = factor();
    while (at_punct(">>")) {
      ++pos_;
      p = Policy::seq(std::move(p), factor());
    }
    return p;
  }

  PolicyPtr factor() {
    if (at_punct("(")) {
      ++pos_;
      PolicyPtr p = policy();
      expect_punct(")");
      return p;
    }
    const std::string kw = expect_ident();
    if (kw == "drop") return Policy::drop();
    if (kw == "fwd") {
      expect_punct("(");
      const int64_t port = expect_int();
      expect_punct(")");
      return Policy::fwd(port);
    }
    if (kw == "match" || kw == "modify") {
      expect_punct("(");
      const std::string key = expect_ident();
      expect_punct("=");
      const int64_t v = expect_int();
      expect_punct(")");
      expect_punct("[");
      PolicyPtr sub = policy();
      expect_punct("]");
      if (kw == "modify") {
        if (key == "switch") throw NetcoreParseError("cannot modify the switch");
        return Policy::modify(field_by_name(key), v, std::move(sub));
      }
      if (key == "switch") return Policy::match_sw(v, std::move(sub));
      return Policy::match(field_by_name(key), v, std::move(sub));
    }
    throw NetcoreParseError("expected policy, found '" + kw + "'");
  }
};

}  // namespace

PolicyPtr parse_policy(std::string_view src) { return Parser(src).parse(); }

}  // namespace mp::netcore
