#include "ndlog/validate.h"

#include <set>
#include <unordered_set>

namespace mp::ndlog {

namespace {

void collect_atom_vars(const Atom& a, std::set<std::string>& out) {
  for (const auto& arg : a.args) {
    std::vector<std::string> vs;
    arg->collect_vars(vs);
    out.insert(vs.begin(), vs.end());
  }
}

}  // namespace

TableIndex::TableIndex(const std::vector<TableDecl>& tables) {
  by_name_.reserve(tables.size());
  for (const auto& t : tables) by_name_.emplace(t.name, &t);
}

const TableDecl* TableIndex::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

void validate_tables(const Program& p, std::vector<std::string>& errors) {
  std::unordered_set<std::string_view> table_names;
  for (const auto& t : p.tables) {
    if (!table_names.insert(t.name).second) {
      errors.push_back("duplicate table declaration: " + t.name);
    }
    if (t.arity == 0) {
      errors.push_back("table " + t.name + " must have arity >= 1 (location)");
    }
    for (size_t k : t.keys) {
      if (k >= t.arity) {
        errors.push_back("table " + t.name + ": key column " +
                         std::to_string(k) + " out of range");
      }
    }
  }
}

void validate_rule(const Rule& r, const TableIndex& tables,
                   std::vector<std::string>& errors) {
  auto check_atom = [&](const Atom& a, const char* where) {
    const TableDecl* d = tables.find(a.table);
    if (d == nullptr) {
      errors.push_back(r.name + ": undeclared table " + a.table + " in " + where);
      return;
    }
    if (d->arity != a.arity()) {
      errors.push_back(r.name + ": " + a.table + " arity mismatch (" +
                       std::to_string(a.arity()) + " vs declared " +
                       std::to_string(d->arity) + ")");
    }
  };
  check_atom(r.head, "head");
  if (r.body.empty()) {
    errors.push_back(r.name + ": rule has no body atoms");
  }
  for (const auto& a : r.body) check_atom(a, "body");

  // Head atom args must be vars or constants (computations go through
  // assignments), as in the uDlog grammar.
  for (const auto& arg : r.head.args) {
    if (arg->kind() == Expr::Kind::Binary) {
      errors.push_back(r.name + ": head argument must be a variable or "
                       "constant, found expression '" + arg->to_string() + "'");
    }
  }

  // Variable binding: body atoms bind; assignments bind in order; head
  // and selections must only use bound variables.
  std::set<std::string> bound;
  for (const auto& a : r.body) collect_atom_vars(a, bound);
  for (const auto& asg : r.assigns) {
    std::vector<std::string> used;
    asg.expr->collect_vars(used);
    for (const auto& v : used) {
      if (!bound.count(v)) {
        errors.push_back(r.name + ": assignment uses unbound variable " + v);
      }
    }
    bound.insert(asg.var);
  }
  for (const auto& s : r.sels) {
    std::vector<std::string> used;
    s.lhs->collect_vars(used);
    s.rhs->collect_vars(used);
    for (const auto& v : used) {
      if (!bound.count(v)) {
        errors.push_back(r.name + ": selection '" + s.to_string() +
                         "' uses unbound variable " + v);
      }
    }
  }
  std::set<std::string> head_vars;
  collect_atom_vars(r.head, head_vars);
  for (const auto& v : head_vars) {
    if (!bound.count(v)) {
      errors.push_back(r.name + ": head uses unbound variable " + v);
    }
  }
}

std::vector<std::string> validate(const Program& p) {
  std::vector<std::string> errors;
  validate_tables(p, errors);
  const TableIndex tables(p.tables);
  std::unordered_set<std::string_view> rule_names;
  for (const auto& r : p.rules) {
    if (!rule_names.insert(r.name).second) {
      errors.push_back("duplicate rule name: " + r.name);
    }
    validate_rule(r, tables, errors);
  }
  return errors;
}

}  // namespace mp::ndlog
