#include "repair/change.h"

#include <algorithm>

namespace mp::repair {

namespace {

using ndlog::Expr;
using ndlog::ExprPtr;

// Rewrites the constant leaf of an operand expression. For plain constants
// the whole operand is replaced; inside arithmetic the first constant leaf
// is rewritten (change sites are extracted the same way in meta/extract).
ExprPtr replace_const(const ExprPtr& e, const Value& v, bool& done) {
  if (done || !e) return e;
  if (e->is_const()) {
    done = true;
    return Expr::constant(v);
  }
  if (e->kind() == Expr::Kind::Binary) {
    ExprPtr l = replace_const(e->lhs(), v, done);
    ExprPtr r = replace_const(e->rhs(), v, done);
    if (l != e->lhs() || r != e->rhs()) {
      return Expr::binary(e->op(), std::move(l), std::move(r));
    }
  }
  return e;
}

std::string operand_desc(const ndlog::Selection& sel) { return sel.to_string(); }

bool retargets_head(ChangeKind k) {
  return k == ChangeKind::ChangeHeadTable || k == ChangeKind::CopyRuleRetarget;
}

// The in-rule part of a change, shared by Change::apply and the delta
// checker: edits `r` for the selection, assignment, body-atom and head
// kinds (CopyRuleRetarget retargets the head of its copy). `head_decl`
// declares new_head_table (nullptr if undeclared). Returns false if the
// change does not fit the rule.
bool edit_rule(const Change& c, ndlog::Rule& r,
               const ndlog::TableDecl* head_decl) {
  switch (c.kind) {
    case ChangeKind::ChangeSelConst:
    case ChangeKind::ChangeSelVar: {
      if (c.index >= r.sels.size()) return false;
      ndlog::Selection& sel = r.sels[c.index];
      ExprPtr& slot = c.side == 0 ? sel.lhs : sel.rhs;
      if (c.kind == ChangeKind::ChangeSelVar) {
        if (!c.new_value.is_str()) return false;
        slot = Expr::var(c.new_value.as_str());
      } else {
        bool done = false;
        ExprPtr next = replace_const(slot, c.new_value, done);
        if (!done) return false;  // no constant at this site
        slot = std::move(next);
      }
      return true;
    }
    case ChangeKind::ChangeSelOp: {
      if (c.index >= r.sels.size()) return false;
      r.sels[c.index].op = c.new_op;
      return true;
    }
    case ChangeKind::DeleteSel: {
      if (c.index >= r.sels.size()) return false;
      r.sels.erase(r.sels.begin() + static_cast<long>(c.index));
      return true;
    }
    case ChangeKind::ChangeAssignConst: {
      if (c.index >= r.assigns.size()) return false;
      bool done = false;
      ExprPtr next = replace_const(r.assigns[c.index].expr, c.new_value, done);
      if (!done) return false;
      r.assigns[c.index].expr = std::move(next);
      return true;
    }
    case ChangeKind::ChangeAssignVar: {
      if (c.index >= r.assigns.size()) return false;
      if (!c.new_value.is_str()) return false;
      r.assigns[c.index].expr = Expr::var(c.new_value.as_str());
      return true;
    }
    case ChangeKind::DeleteBodyAtom: {
      if (c.index >= r.body.size()) return false;
      if (r.body.size() <= 1) return false;  // a rule needs a body
      r.body.erase(r.body.begin() + static_cast<long>(c.index));
      return true;
    }
    case ChangeKind::ChangeHeadTable:
    case ChangeKind::CopyRuleRetarget: {
      if (head_decl == nullptr) return false;
      ndlog::Atom head;
      head.table = c.new_head_table;
      if (c.head_perm.empty()) {
        if (head_decl->arity != r.head.args.size()) return false;
        head.args = r.head.args;
      } else {
        if (c.head_perm.size() != head_decl->arity) return false;
        for (size_t src : c.head_perm) {
          if (src >= r.head.args.size()) return false;
          head.args.push_back(r.head.args[src]);
        }
      }
      r.head = std::move(head);
      return true;
    }
    case ChangeKind::DeleteRule:
    case ChangeKind::InsertBaseTuple:
    case ChangeKind::DeleteBaseTuple:
      return false;  // not in-rule edits
  }
  return false;
}

}  // namespace

const char* to_string(ChangeKind k) {
  switch (k) {
    case ChangeKind::ChangeSelConst: return "change-constant";
    case ChangeKind::ChangeSelOp: return "change-operator";
    case ChangeKind::ChangeSelVar: return "change-variable";
    case ChangeKind::DeleteSel: return "delete-selection";
    case ChangeKind::ChangeAssignConst: return "change-assignment-constant";
    case ChangeKind::ChangeAssignVar: return "change-assignment-variable";
    case ChangeKind::DeleteBodyAtom: return "delete-predicate";
    case ChangeKind::ChangeHeadTable: return "change-head";
    case ChangeKind::CopyRuleRetarget: return "copy-rule";
    case ChangeKind::DeleteRule: return "delete-rule";
    case ChangeKind::InsertBaseTuple: return "insert-tuple";
    case ChangeKind::DeleteBaseTuple: return "delete-tuple";
  }
  return "?";
}

std::string Change::describe(const ndlog::Program& p) const {
  const ndlog::Rule* r = p.find_rule(rule);
  switch (kind) {
    case ChangeKind::ChangeSelConst:
    case ChangeKind::ChangeSelVar: {
      if (r == nullptr || index >= r->sels.size()) return "(stale change)";
      const ndlog::Selection& sel = r->sels[index];
      ndlog::Selection after = sel;
      const ExprPtr repl = kind == ChangeKind::ChangeSelVar
                               ? Expr::var(new_value.as_str())
                               : Expr::constant(new_value);
      if (side == 0) after.lhs = repl; else after.rhs = repl;
      return "Changing " + operand_desc(sel) + " in " + rule + " to " +
             operand_desc(after);
    }
    case ChangeKind::ChangeSelOp: {
      if (r == nullptr || index >= r->sels.size()) return "(stale change)";
      const ndlog::Selection& sel = r->sels[index];
      ndlog::Selection after = sel;
      after.op = new_op;
      return "Changing " + operand_desc(sel) + " in " + rule + " to " +
             operand_desc(after);
    }
    case ChangeKind::DeleteSel: {
      if (r == nullptr || index >= r->sels.size()) return "(stale change)";
      return "Deleting " + operand_desc(r->sels[index]) + " in " + rule;
    }
    case ChangeKind::ChangeAssignConst: {
      if (r == nullptr || index >= r->assigns.size()) return "(stale change)";
      const ndlog::Assignment& a = r->assigns[index];
      ndlog::Assignment after = a;
      bool done = false;
      after.expr = replace_const(a.expr, new_value, done);
      return "Changing " + a.to_string() + " in " + rule + " to " +
             after.to_string();
    }
    case ChangeKind::ChangeAssignVar: {
      if (r == nullptr || index >= r->assigns.size()) return "(stale change)";
      const ndlog::Assignment& a = r->assigns[index];
      return "Changing " + a.to_string() + " in " + rule + " to " + a.var +
             " := " + new_value.as_str();
    }
    case ChangeKind::DeleteBodyAtom: {
      if (r == nullptr || index >= r->body.size()) return "(stale change)";
      return "Deleting predicate " + r->body[index].table + " in " + rule;
    }
    case ChangeKind::ChangeHeadTable:
    case ChangeKind::CopyRuleRetarget: {
      std::string head = new_head_table + "(";
      if (r != nullptr) {
        for (size_t i = 0; i < head_perm.size(); ++i) {
          if (i) head += ",";
          head += head_perm[i] < r->head.args.size()
                      ? r->head.args[head_perm[i]]->to_string()
                      : "?";
        }
      }
      head += head_perm.empty() ? "...)" : ")";
      if (kind == ChangeKind::ChangeHeadTable) {
        return "Changing the head of " + rule + " to " + head;
      }
      return "Copying " + rule + " and replacing head with " + head;
    }
    case ChangeKind::DeleteRule:
      return "Deleting rule " + rule;
    case ChangeKind::InsertBaseTuple:
      return "Manually installing " + tuple.to_string();
    case ChangeKind::DeleteBaseTuple:
      return "Deleting base tuple " + tuple.to_string();
  }
  return "?";
}

std::string Change::copied_name() const {
  return copy_name.empty() ? rule + "'" : copy_name;
}

bool Change::apply(ndlog::Program& p) const {
  switch (kind) {
    case ChangeKind::InsertBaseTuple:
    case ChangeKind::DeleteBaseTuple:
      return true;  // applied by the replay harness, not the program
    case ChangeKind::DeleteRule: {
      for (size_t i = 0; i < p.rules.size(); ++i) {
        if (p.rules[i].name == rule) {
          p.rules.erase(p.rules.begin() + static_cast<long>(i));
          return true;
        }
      }
      return false;
    }
    case ChangeKind::CopyRuleRetarget: {
      const ndlog::Rule* r = p.find_rule(rule);
      if (r == nullptr) return false;
      ndlog::Rule copy = *r;
      copy.name = copied_name();
      if (p.find_rule(copy.name) != nullptr) return false;
      if (!edit_rule(*this, copy, p.find_table(new_head_table))) return false;
      p.rules.push_back(std::move(copy));
      return true;
    }
    default: {
      ndlog::Rule* r = p.find_rule(rule);
      if (r == nullptr) return false;
      return edit_rule(*this, *r,
                       retargets_head(kind) ? p.find_table(new_head_table)
                                            : nullptr);
    }
  }
}

std::string RepairCandidate::describe(const ndlog::Program& p) const {
  if (!description.empty()) return description;
  std::string out;
  for (size_t i = 0; i < changes.size(); ++i) {
    if (i) out += " and ";
    out += changes[i].describe(p);
  }
  return out;
}

CandidateChecker::CandidateChecker(const ndlog::Program& base)
    : base_(base), tables_(base.tables) {
  std::vector<std::string> errors;
  ndlog::validate_tables(base, errors);
  tables_ok_ = errors.empty();
  const size_t n = base.rules.size();
  first_rule_.reserve(n);
  next_same_name_.assign(n, kNone);
  rule_ok_.assign(n, true);
  // Tail of each name's chain, so duplicates chain in base order.
  std::unordered_map<std::string_view, uint32_t> last;
  for (uint32_t i = 0; i < n; ++i) {
    const ndlog::Rule& r = base.rules[i];
    const auto [it, fresh] = first_rule_.emplace(r.name, i);
    if (!fresh) {
      auto [tail, first_dup] = last.try_emplace(r.name, it->second);
      if (first_dup) ++shared_names_;
      next_same_name_[tail->second] = i;
      tail->second = i;
    }
    errors.clear();
    ndlog::validate_rule(r, tables_, errors);
    if (!errors.empty()) {
      rule_ok_[i] = false;
      ++invalid_rules_;
    }
  }
}

const ndlog::Rule* CandidateChecker::base_rule(std::string_view name) const {
  const auto it = first_rule_.find(name);
  return it == first_rule_.end() ? nullptr : &base_.rules[it->second];
}

std::optional<ProgramDelta> CandidateChecker::delta(
    const RepairCandidate& cand) const {
  ProgramDelta d;
  auto touched = [&](size_t i) -> ProgramDelta::Touched* {
    for (auto& t : d.touched) {
      if (t.index == i) return &t;
    }
    return nullptr;
  };
  // Where `name` resolves in the candidate program so far, in
  // Program::find_rule order: surviving base rules, then copies.
  enum class Where { None, Base, Added };
  auto locate = [&](std::string_view name) -> std::pair<Where, size_t> {
    if (const auto it = first_rule_.find(name); it != first_rule_.end()) {
      for (uint32_t j = it->second; j != kNone; j = next_same_name_[j]) {
        const ProgramDelta::Touched* t = touched(j);
        if (t == nullptr || t->rule) return {Where::Base, j};
      }
    }
    for (size_t k = 0; k < d.added.size(); ++k) {
      if (d.added[k].name == name) return {Where::Added, k};
    }
    return {Where::None, 0};
  };
  auto current = [&](Where where, size_t i) -> const ndlog::Rule& {
    if (where == Where::Added) return d.added[i];
    const ProgramDelta::Touched* t = touched(i);
    return t != nullptr ? *t->rule : base_.rules[i];
  };
  // The located rule, copied into the delta first if it is a base rule.
  // Rules sharing a name are copied together, so the duplicate-name check
  // below sees all of them.
  auto edit = [&](Where where, size_t i) -> ndlog::Rule& {
    if (where == Where::Added) return d.added[i];
    if (touched(i) == nullptr) {
      const uint32_t first = first_rule_.find(base_.rules[i].name)->second;
      for (uint32_t j = first; j != kNone; j = next_same_name_[j]) {
        d.touched.push_back({j, base_.rules[j]});
      }
    }
    return *touched(i)->rule;
  };

  for (const Change& c : cand.changes) {
    if (c.kind == ChangeKind::InsertBaseTuple ||
        c.kind == ChangeKind::DeleteBaseTuple) {
      continue;  // applied by the replay harness, not the program
    }
    const auto [where, i] = locate(c.rule);
    if (where == Where::None) return std::nullopt;
    if (c.kind == ChangeKind::DeleteRule) {
      if (where == Where::Added) {
        d.added.erase(d.added.begin() + static_cast<long>(i));
      } else {
        edit(where, i);
        touched(i)->rule.reset();
      }
    } else if (c.kind == ChangeKind::CopyRuleRetarget) {
      ndlog::Rule copy = current(where, i);
      copy.name = c.copied_name();
      if (locate(copy.name).first != Where::None) return std::nullopt;
      if (!edit_rule(c, copy, tables_.find(c.new_head_table))) {
        return std::nullopt;
      }
      d.added.push_back(std::move(copy));
    } else {
      const ndlog::TableDecl* head_decl =
          retargets_head(c.kind) ? tables_.find(c.new_head_table) : nullptr;
      if (!edit_rule(c, edit(where, i), head_decl)) return std::nullopt;
    }
  }

  // The candidate program validates iff the tables do, every rule passes
  // the per-rule check and no two rules share a name. Untouched rules keep
  // their base verdict; touched and added rules are checked afresh.
  if (!tables_ok_) return std::nullopt;
  size_t invalid_untouched = invalid_rules_;
  for (const auto& t : d.touched) {
    if (!rule_ok_[t.index]) --invalid_untouched;
  }
  if (invalid_untouched != 0) return std::nullopt;
  if (shared_names_ != 0) {
    // Each shared base name must be touched (which copies all its rules)
    // and keep at most one of them; copies never reuse a live name.
    size_t shared_touched = 0;
    for (const auto& t : d.touched) {
      if (first_rule_.find(base_.rules[t.index].name)->second != t.index ||
          next_same_name_[t.index] == kNone) {
        continue;
      }
      ++shared_touched;
      size_t live = 0;
      for (uint32_t j = t.index; j != kNone; j = next_same_name_[j]) {
        if (touched(j)->rule) ++live;
      }
      if (live > 1) return std::nullopt;
    }
    if (shared_touched != shared_names_) return std::nullopt;
  }
  std::vector<std::string> errors;
  for (const auto& t : d.touched) {
    if (t.rule) ndlog::validate_rule(*t.rule, tables_, errors);
  }
  for (const auto& r : d.added) ndlog::validate_rule(r, tables_, errors);
  if (!errors.empty()) return std::nullopt;

  std::sort(d.touched.begin(), d.touched.end(),
            [](const ProgramDelta::Touched& a, const ProgramDelta::Touched& b) {
              return a.index < b.index;
            });
  return d;
}

ndlog::Program CandidateChecker::splice(ProgramDelta d) const {
  ndlog::Program p;
  p.tables = base_.tables;
  p.rules.reserve(base_.rules.size() + d.added.size());
  auto next = d.touched.begin();
  for (size_t i = 0; i < base_.rules.size(); ++i) {
    if (next != d.touched.end() && next->index == i) {
      if (next->rule) p.rules.push_back(std::move(*next->rule));
      ++next;
    } else {
      p.rules.push_back(base_.rules[i]);
    }
  }
  for (ndlog::Rule& r : d.added) p.rules.push_back(std::move(r));
  return p;
}

std::optional<ndlog::Program> apply_candidate(const ndlog::Program& base,
                                              const RepairCandidate& cand) {
  const CandidateChecker checker(base);
  std::optional<ProgramDelta> d = checker.delta(cand);
  if (!d) return std::nullopt;
  return checker.splice(std::move(*d));
}

std::vector<eval::Tuple> candidate_insertions(const RepairCandidate& cand) {
  std::vector<eval::Tuple> out;
  for (const Change& c : cand.changes) {
    if (c.kind == ChangeKind::InsertBaseTuple) out.push_back(c.tuple);
  }
  return out;
}

std::vector<eval::Tuple> candidate_deletions(const RepairCandidate& cand) {
  std::vector<eval::Tuple> out;
  for (const Change& c : cand.changes) {
    if (c.kind == ChangeKind::DeleteBaseTuple) out.push_back(c.tuple);
  }
  return out;
}

}  // namespace mp::repair
