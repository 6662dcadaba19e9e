#include "backtest/multiquery.h"

#include <algorithm>
#include <optional>

namespace mp::backtest {

eval::TagMask CombinedProgram::config_mask(const eval::Tuple& t) const {
  eval::TagMask mask = candidate_count >= eval::kMaxTags
                           ? eval::kAllTags
                           : (eval::TagMask{1} << candidate_count) - 1;
  for (const auto& [tuple, tags] : deletions) {
    if (tuple == t) mask &= ~tags;
  }
  return mask;
}

CombinedProgram build_backtest_program(
    const ndlog::Program& base,
    const std::vector<repair::RepairCandidate>& candidates) {
  CombinedProgram out;
  out.program = base;
  out.candidate_count = std::min(candidates.size(), eval::kMaxTags);
  const eval::TagMask all =
      out.candidate_count >= eval::kMaxTags
          ? eval::kAllTags
          : (eval::TagMask{1} << out.candidate_count) - 1;
  for (const auto& rule : base.rules) out.rule_restrict[rule.name] = all;

  const repair::CandidateChecker checker(base);
  for (size_t i = 0; i < out.candidate_count; ++i) {
    const eval::TagMask bit = eval::TagMask{1} << i;
    std::optional<repair::ProgramDelta> delta = checker.delta(candidates[i]);
    if (!delta) {
      out.invalid.push_back(i);
      // An invalid candidate participates with the unmodified program.
      continue;
    }
    // Diff the rules the candidate touched against the base by rule name
    // + printed form, in candidate-program order (touched base rules, then
    // copies). Every other rule is a base rule and needs no tagged copy.
    auto diff = [&](ndlog::Rule& rule) {
      const ndlog::Rule* orig = checker.base_rule(rule.name);
      if (orig != nullptr && orig->to_string() == rule.to_string()) return;
      // Modified or new rule: add a tagged copy.
      if (orig != nullptr) out.rule_restrict[orig->name] &= ~bit;
      rule.name += "#" + std::to_string(i);
      out.rule_restrict[rule.name] = bit;
      out.program.rules.push_back(std::move(rule));
    };
    // Rules the candidate deleted: restrict the original away, unless a
    // rule of the same name survives (touching a name touches all of its
    // base rules, so the delta holds every survivor). Runs before diff(),
    // which renames the rules it moves out.
    auto survives = [&](const std::string& name) {
      for (const auto& t : delta->touched) {
        if (t.rule && t.rule->name == name) return true;
      }
      for (const auto& r : delta->added) {
        if (r.name == name) return true;
      }
      return false;
    };
    for (const auto& t : delta->touched) {
      const std::string& name = base.rules[t.index].name;
      if (!t.rule && !survives(name)) out.rule_restrict[name] &= ~bit;
    }
    for (auto& t : delta->touched) {
      if (t.rule) diff(*t.rule);
    }
    for (ndlog::Rule& rule : delta->added) diff(rule);
    for (const eval::Tuple& t : repair::candidate_insertions(candidates[i])) {
      out.insertions.emplace_back(t, bit);
    }
    for (const eval::Tuple& t : repair::candidate_deletions(candidates[i])) {
      out.deletions.emplace_back(t, bit);
    }
  }
  return out;
}

}  // namespace mp::backtest
