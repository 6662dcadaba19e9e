// AST for the NDlog subset used by the controller programs. The grammar is
// a superset of the paper's uDlog (Figure 3): rules with located head and
// body atoms, comparison selections, := assignments, integer and string
// constants, and simple arithmetic in expressions.
//
// Expressions use shared immutable subtrees so that Rule is cheap to copy;
// the repair engine builds a candidate by copying and mutating only the
// rules its changes touch (src/repair/README.md).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/value.h"

namespace mp::ndlog {

enum class CmpOp : uint8_t { Eq, Ne, Lt, Gt, Le, Ge };
enum class ArithOp : uint8_t { Add, Sub, Mul, Div };

std::string to_string(CmpOp op);
std::string to_string(ArithOp op);
// Evaluate `a op b` over values; integer comparison or string equality.
bool cmp_eval(CmpOp op, const Value& a, const Value& b);
// Evaluate `a op b` into `out` over integers. False (and `out` untouched)
// when an operand is not an integer, on division by zero and when the
// int64 result would overflow (INT64_MIN / -1 included).
bool arith_eval(ArithOp op, const Value& a, const Value& b, Value& out);
// All six comparison operators, for operator-mutation repairs.
const std::vector<CmpOp>& all_cmp_ops();
CmpOp negate(CmpOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind : uint8_t { Const, Var, Binary };

  static ExprPtr constant(Value v);
  static ExprPtr var(std::string name);
  static ExprPtr binary(ArithOp op, ExprPtr lhs, ExprPtr rhs);

  Kind kind() const { return kind_; }
  bool is_const() const { return kind_ == Kind::Const; }
  bool is_var() const { return kind_ == Kind::Var; }

  const Value& cval() const { return cval_; }
  const std::string& var_name() const { return var_; }
  ArithOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  std::string to_string() const;
  // Collect variable names (in order of first appearance).
  void collect_vars(std::vector<std::string>& out) const;
  bool equals(const Expr& o) const;

 private:
  Kind kind_ = Kind::Const;
  Value cval_;
  std::string var_;
  ArithOp op_ = ArithOp::Add;
  ExprPtr lhs_, rhs_;
};

// A selection predicate `expr op expr` (the "sel" of the uDlog grammar).
struct Selection {
  ExprPtr lhs;
  CmpOp op = CmpOp::Eq;
  ExprPtr rhs;
  std::string to_string() const;
};

// An assignment `Var := expr`.
struct Assignment {
  std::string var;
  ExprPtr expr;
  std::string to_string() const;
};

// A located atom Table(@Loc, a1, ..., an). Column 0 is the location
// specifier; args are Const or Var expressions.
struct Atom {
  std::string table;
  std::vector<ExprPtr> args;  // args[0] = location
  std::string to_string() const;
  size_t arity() const { return args.size(); }
};

struct Rule {
  std::string name;  // e.g. "r1"
  Atom head;
  std::vector<Atom> body;
  std::vector<Selection> sels;
  std::vector<Assignment> assigns;
  std::string to_string() const;
};

enum class TableKind : uint8_t {
  Materialized,  // persists until deleted (state)
  Event,         // transient: triggers rules then expires (message)
};

struct TableDecl {
  std::string name;
  size_t arity = 0;                // includes the location column
  std::vector<size_t> keys;        // primary-key columns (default: all)
  TableKind kind = TableKind::Materialized;
  std::string to_string() const;
};

struct Program {
  std::vector<TableDecl> tables;
  std::vector<Rule> rules;

  const TableDecl* find_table(const std::string& name) const;
  const Rule* find_rule(const std::string& name) const;
  Rule* find_rule(const std::string& name);
  std::string to_string() const;
  // Number of syntactic lines (decls + rules); Fig 10 sweeps program size.
  size_t line_count() const { return tables.size() + rules.size(); }
};

}  // namespace mp::ndlog
