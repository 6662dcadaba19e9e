// Static validation of NDlog programs: declared tables, matching arities,
// bound variables, and acyclic assignment chains. The repair engine also
// validates every candidate program before backtesting it (Section 4.2:
// changes must keep the syntax legal).
//
// Validation splits into program-level checks (table declarations,
// duplicate rule names) and a per-rule check that depends only on the
// rule and the table declarations. Full validation runs both; the repair
// engine's delta checker (src/repair/change.h) validates a base program
// once and then re-runs only the per-rule check on the rules a candidate
// touches.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ndlog/ast.h"

namespace mp::ndlog {

// Table declarations by name, built in one pass. The first declaration of
// a name wins, as in Program::find_table. Borrows the declarations: they
// must outlive the index.
class TableIndex {
 public:
  explicit TableIndex(const std::vector<TableDecl>& tables);
  const TableDecl* find(std::string_view name) const;

 private:
  std::unordered_map<std::string_view, const TableDecl*> by_name_;
};

// Program-level checks on the table declarations (duplicates, arity,
// key columns); appends diagnostics to `errors`.
void validate_tables(const Program& p, std::vector<std::string>& errors);

// Per-rule checks (declared tables and arities, a non-empty body, plain
// head arguments, bound variables); appends diagnostics to `errors`.
void validate_rule(const Rule& r, const TableIndex& tables,
                   std::vector<std::string>& errors);

// Returns a list of human-readable problems; empty means valid. Runs in
// time linear in the number of rules and tables.
std::vector<std::string> validate(const Program& p);

inline bool is_valid(const Program& p) { return validate(p).empty(); }

}  // namespace mp::ndlog
