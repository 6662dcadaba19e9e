#include "langs/netcore/parser.h"

#include <cctype>
#include <charconv>
#include <vector>

namespace mp::netcore {

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
    if (c == '#') {
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
        throw NetcoreParseError("integer literal out of range: " + t.text);
      }
      out.push_back(std::move(t));
      continue;
    }
    if (src.substr(i, 2) == ">>") {
      out.push_back({Tok::Kind::Punct, ">>", 0});
      i += 2;
      continue;
    }
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
  throw NetcoreParseError("unknown field: " + name);
}

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

  PolicyPtr parse() {
    PolicyPtr p = policy();
    if (cur().kind != Tok::Kind::End) {
      throw NetcoreParseError("trailing input: '" + cur().text + "'");
    }
    return p;
  }

 private:
  const Tok& cur() const { return toks_[pos_]; }
  bool at_punct(const std::string& s) const {
    return cur().kind == Tok::Kind::Punct && cur().text == s;
  }
  void expect_punct(const std::string& s) {
    if (!at_punct(s)) {
      throw NetcoreParseError("expected '" + s + "', found '" + cur().text + "'");
    }
    ++pos_;
  }
  std::string expect_ident() {
    if (cur().kind != Tok::Kind::Ident) {
      throw NetcoreParseError("expected identifier, found '" + cur().text + "'");
    }
    return toks_[pos_++].text;
  }
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

  std::vector<Tok> toks_;
  size_t pos_ = 0;
};

}  // namespace

PolicyPtr parse_policy(std::string_view src) { return Parser(src).parse(); }

}  // namespace mp::netcore
