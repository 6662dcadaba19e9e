// Tokenizer and token cursor shared by the Imp and NetCore text frontends
// (langs/imp/parser.cpp, langs/netcore/parser.cpp). Both languages lex
// the same way — identifiers, optionally negative integer literals,
// punctuation, `#` comments to end of line — and differ only in their
// multi-character punctuation and in the exception type (and wording)
// their parse errors carry.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sdn/packet.h"

namespace mp::langs {

struct Tok {
  enum class Kind : uint8_t { Ident, Int, Punct, End } kind = Kind::End;
  std::string text;
  int64_t ival = 0;
};

// Base of a recursive-descent parser over the tokens of `src`. `Error` is
// the language's parse exception; `multi_punct` lists its
// multi-character punctuation, tried in order before single characters;
// an unknown packet field reads `unknown_field` followed by the name.
template <typename Error>
class TokenCursor {
 protected:
  TokenCursor(std::string_view src,
              std::initializer_list<std::string_view> multi_punct,
              std::string unknown_field)
      : toks_(lex(src, multi_punct)),
        unknown_field_(std::move(unknown_field)) {}

  const Tok& cur() const { return toks_[pos_]; }
  bool at_punct(std::string_view s) const {
    return cur().kind == Tok::Kind::Punct && cur().text == s;
  }
  bool at_ident(std::string_view s) const {
    return cur().kind == Tok::Kind::Ident && cur().text == s;
  }
  void expect_punct(std::string_view s) {
    if (!at_punct(s)) {
      throw Error("expected '" + std::string(s) + "', found '" + cur().text +
                  "'");
    }
    ++pos_;
  }
  // The next identifier (which must be `want`, when given).
  std::string expect_ident(std::string_view want = {}) {
    if (cur().kind != Tok::Kind::Ident ||
        (!want.empty() && cur().text != want)) {
      throw Error("expected identifier" +
                  (want.empty() ? "" : " '" + std::string(want) + "'") +
                  ", found '" + cur().text + "'");
    }
    return toks_[pos_++].text;
  }
  // The packet field named `name` (its sdn::to_string spelling).
  sdn::Field field_by_name(const std::string& name) const {
    for (sdn::Field f :
         {sdn::Field::InPort, sdn::Field::Sip, sdn::Field::Dip,
          sdn::Field::Smc, sdn::Field::Dmc, sdn::Field::Spt, sdn::Field::Dpt,
          sdn::Field::Proto, sdn::Field::Bucket}) {
      if (name == sdn::to_string(f)) return f;
    }
    throw Error(unknown_field_ + name);
  }

  std::vector<Tok> toks_;  // ends with one Kind::End token
  size_t pos_ = 0;

 private:
  static std::vector<Tok> lex(
      std::string_view src,
      std::initializer_list<std::string_view> multi_punct) {
    auto uc = [](char c) { return static_cast<unsigned char>(c); };
    std::vector<Tok> out;
    size_t i = 0;
    while (i < src.size()) {
      const char c = src[i];
      if (std::isspace(uc(c))) {
        ++i;
        continue;
      }
      if (c == '#') {  // comment to end of line
        while (i < src.size() && src[i] != '\n') ++i;
        continue;
      }
      const size_t start = i;
      if (std::isalpha(uc(c)) || c == '_') {
        while (i < src.size() &&
               (std::isalnum(uc(src[i])) || src[i] == '_')) {
          ++i;
        }
        out.push_back(
            {Tok::Kind::Ident, std::string(src.substr(start, i - start)), 0});
        continue;
      }
      if (std::isdigit(uc(c)) ||
          (c == '-' && i + 1 < src.size() && std::isdigit(uc(src[i + 1])))) {
        ++i;
        while (i < src.size() && std::isdigit(uc(src[i]))) ++i;
        Tok t{Tok::Kind::Int, std::string(src.substr(start, i - start)), 0};
        if (std::from_chars(src.data() + start, src.data() + i, t.ival).ec !=
            std::errc{}) {
          throw Error("integer literal out of range: " + t.text);
        }
        out.push_back(std::move(t));
        continue;
      }
      size_t len = 1;
      for (std::string_view op : multi_punct) {
        if (src.substr(i, op.size()) == op) {
          len = op.size();
          break;
        }
      }
      out.push_back({Tok::Kind::Punct, std::string(src.substr(i, len)), 0});
      i += len;
    }
    out.push_back({Tok::Kind::End, "", 0});
    return out;
  }

  std::string unknown_field_;
};

}  // namespace mp::langs
