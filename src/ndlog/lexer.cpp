#include "ndlog/lexer.h"

#include <cctype>
#include <charconv>

namespace mp::ndlog {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\''; }

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  size_t i = 0, line = 1, col = 1;
  auto make = [&](TokKind k, std::string text) {
    Token t;
    t.kind = k;
    t.text = std::move(text);
    t.line = line;
    t.col = col;
    return t;
  };
  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (i < src.size() && src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') advance(1);
      continue;
    }
    if (ident_start(c)) {
      size_t start = i;
      size_t scol = col;
      while (i < src.size() && ident_char(src[i])) advance(1);
      std::string text(src.substr(start, i - start));
      Token t;
      t.line = line;
      t.col = scol;
      t.text = text;
      if (text == "table") t.kind = TokKind::KwTable;
      else if (text == "event") t.kind = TokKind::KwEvent;
      else if (text == "keys") t.kind = TokKind::KwKeys;
      else t.kind = TokKind::Ident;
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      size_t scol = col;
      while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) advance(1);
      Token t;
      t.kind = TokKind::Int;
      t.text = std::string(src.substr(start, i - start));
      if (std::from_chars(src.data() + start, src.data() + i, t.ival).ec !=
          std::errc{}) {
        throw ParseError("integer literal out of range: " + t.text, line,
                         scol);
      }
      t.line = line;
      t.col = scol;
      out.push_back(std::move(t));
      continue;
    }
    if (c == '"') {
      size_t scol = col;
      advance(1);
      size_t start = i;
      while (i < src.size() && src[i] != '"') advance(1);
      if (i >= src.size()) throw ParseError("unterminated string", line, scol);
      Token t;
      t.kind = TokKind::Str;
      t.text = std::string(src.substr(start, i - start));
      t.line = line;
      t.col = scol;
      advance(1);  // closing quote
      out.push_back(std::move(t));
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < src.size() && src[i + 1] == b;
    };
    if (two(':', '-')) { out.push_back(make(TokKind::Derives, ":-")); advance(2); continue; }
    if (two(':', '=')) { out.push_back(make(TokKind::Assign, ":=")); advance(2); continue; }
    if (two('=', '=')) { out.push_back(make(TokKind::EqEq, "==")); advance(2); continue; }
    if (two('!', '=')) { out.push_back(make(TokKind::NotEq, "!=")); advance(2); continue; }
    if (two('<', '=')) { out.push_back(make(TokKind::Le, "<=")); advance(2); continue; }
    if (two('>', '=')) { out.push_back(make(TokKind::Ge, ">=")); advance(2); continue; }
    switch (c) {
      case '(': out.push_back(make(TokKind::LParen, "(")); advance(1); continue;
      case ')': out.push_back(make(TokKind::RParen, ")")); advance(1); continue;
      case ',': out.push_back(make(TokKind::Comma, ",")); advance(1); continue;
      case '.': out.push_back(make(TokKind::Dot, ".")); advance(1); continue;
      case '@': out.push_back(make(TokKind::At, "@")); advance(1); continue;
      case '<': out.push_back(make(TokKind::Lt, "<")); advance(1); continue;
      case '>': out.push_back(make(TokKind::Gt, ">")); advance(1); continue;
      case '+': out.push_back(make(TokKind::Plus, "+")); advance(1); continue;
      case '-': out.push_back(make(TokKind::Minus, "-")); advance(1); continue;
      case '*': out.push_back(make(TokKind::Star, "*")); advance(1); continue;
      case '/': out.push_back(make(TokKind::Slash, "/")); advance(1); continue;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", line, col);
    }
  }
  out.push_back(make(TokKind::End, ""));
  return out;
}

}  // namespace mp::ndlog
