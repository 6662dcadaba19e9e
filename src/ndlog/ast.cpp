#include "ndlog/ast.h"

#include <limits>

namespace mp::ndlog {

std::string to_string(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
    case CmpOp::Lt: return "<";
    case CmpOp::Gt: return ">";
    case CmpOp::Le: return "<=";
    case CmpOp::Ge: return ">=";
  }
  return "?";
}

std::string to_string(ArithOp op) {
  switch (op) {
    case ArithOp::Add: return "+";
    case ArithOp::Sub: return "-";
    case ArithOp::Mul: return "*";
    case ArithOp::Div: return "/";
  }
  return "?";
}

bool cmp_eval(CmpOp op, const Value& a, const Value& b) {
  switch (op) {
    case CmpOp::Eq: return a == b;
    case CmpOp::Ne: return a != b;
    case CmpOp::Lt: return a < b;
    case CmpOp::Gt: return b < a;
    case CmpOp::Le: return !(b < a);
    case CmpOp::Ge: return !(a < b);
  }
  return false;
}

bool arith_eval(ArithOp op, const Value& a, const Value& b, Value& out) {
  if (!a.is_int() || !b.is_int()) return false;
  const int64_t x = a.as_int();
  const int64_t y = b.as_int();
  int64_t r = 0;
  switch (op) {
    case ArithOp::Add:
      if (__builtin_add_overflow(x, y, &r)) return false;
      break;
    case ArithOp::Sub:
      if (__builtin_sub_overflow(x, y, &r)) return false;
      break;
    case ArithOp::Mul:
      if (__builtin_mul_overflow(x, y, &r)) return false;
      break;
    case ArithOp::Div:
      if (y == 0 || (x == std::numeric_limits<int64_t>::min() && y == -1)) {
        return false;
      }
      r = x / y;
      break;
  }
  out = Value(r);
  return true;
}

const std::vector<CmpOp>& all_cmp_ops() {
  static const std::vector<CmpOp> ops = {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt,
                                         CmpOp::Gt, CmpOp::Le, CmpOp::Ge};
  return ops;
}

CmpOp negate(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return CmpOp::Ne;
    case CmpOp::Ne: return CmpOp::Eq;
    case CmpOp::Lt: return CmpOp::Ge;
    case CmpOp::Gt: return CmpOp::Le;
    case CmpOp::Le: return CmpOp::Gt;
    case CmpOp::Ge: return CmpOp::Lt;
  }
  return CmpOp::Eq;
}

ExprPtr Expr::constant(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::Const;
  e->cval_ = std::move(v);
  return e;
}

ExprPtr Expr::var(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::Var;
  e->var_ = std::move(name);
  return e;
}

ExprPtr Expr::binary(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::Binary;
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

std::string Expr::to_string() const {
  switch (kind_) {
    case Kind::Const: return cval_.to_string();
    case Kind::Var: return var_;
    case Kind::Binary:
      return lhs_->to_string() + " " + mp::ndlog::to_string(op_) + " " +
             rhs_->to_string();
  }
  return "?";
}

void Expr::collect_vars(std::vector<std::string>& out) const {
  switch (kind_) {
    case Kind::Const: return;
    case Kind::Var: {
      for (const auto& v : out)
        if (v == var_) return;
      out.push_back(var_);
      return;
    }
    case Kind::Binary:
      lhs_->collect_vars(out);
      rhs_->collect_vars(out);
      return;
  }
}

bool Expr::equals(const Expr& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::Const: return cval_ == o.cval_;
    case Kind::Var: return var_ == o.var_;
    case Kind::Binary:
      return op_ == o.op_ && lhs_->equals(*o.lhs_) && rhs_->equals(*o.rhs_);
  }
  return false;
}

std::string Selection::to_string() const {
  return lhs->to_string() + " " + mp::ndlog::to_string(op) + " " +
         rhs->to_string();
}

std::string Assignment::to_string() const {
  return var + " := " + expr->to_string();
}

std::string Atom::to_string() const {
  std::string out = table + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) out += ",";
    if (i == 0) out += "@";
    out += args[i]->to_string();
  }
  out += ")";
  return out;
}

std::string Rule::to_string() const {
  std::string out = name + " " + head.to_string() + " :- ";
  std::vector<std::string> parts;
  for (const auto& a : body) parts.push_back(a.to_string());
  for (const auto& s : sels) parts.push_back(s.to_string());
  for (const auto& a : assigns) parts.push_back(a.to_string());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += ", ";
    out += parts[i];
  }
  out += ".";
  return out;
}

std::string TableDecl::to_string() const {
  std::string out = kind == TableKind::Event ? "event " : "table ";
  out += name + "/" + std::to_string(arity);
  if (!keys.empty()) {
    out += " keys(";
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(keys[i]);
    }
    out += ")";
  }
  out += ".";
  return out;
}

const TableDecl* Program::find_table(const std::string& name) const {
  for (const auto& t : tables)
    if (t.name == name) return &t;
  return nullptr;
}

const Rule* Program::find_rule(const std::string& name) const {
  for (const auto& r : rules)
    if (r.name == name) return &r;
  return nullptr;
}

Rule* Program::find_rule(const std::string& name) {
  for (auto& r : rules)
    if (r.name == name) return &r;
  return nullptr;
}

std::string Program::to_string() const {
  std::string out;
  for (const auto& t : tables) out += t.to_string() + "\n";
  for (const auto& r : rules) out += r.to_string() + "\n";
  return out;
}

}  // namespace mp::ndlog
