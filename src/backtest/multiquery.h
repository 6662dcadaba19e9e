// Multi-query backtesting (Section 4.4): all candidates are merged into a
// single "backtesting program". Rules a candidate modifies are copied,
// restricted to that candidate's tag; the original rule is restricted away
// from the tags that modified or deleted it. Base-tuple insertions carry
// the candidate's tag; deletions mask the candidate's tag off the config
// tuple. Shared computation (the unmodified bulk of the program) then runs
// once for all candidates.
#pragma once

#include <map>

#include "eval/tuple.h"
#include "ndlog/ast.h"
#include "repair/change.h"

namespace mp::backtest {

struct CombinedProgram {
  ndlog::Program program;
  // Tag restriction per rule name (applied via Engine::set_rule_restrict).
  std::map<std::string, eval::TagMask> rule_restrict;
  // Per-candidate base-tuple insertions (tagged).
  std::vector<std::pair<eval::Tuple, eval::TagMask>> insertions;
  // Tuples a candidate deletes: config insertion must mask these tags off.
  std::vector<std::pair<eval::Tuple, eval::TagMask>> deletions;
  // Candidates whose program failed to apply (reported invalid).
  std::vector<size_t> invalid;
  size_t candidate_count = 0;

  // Mask to insert a config tuple with (all tags minus deleters).
  eval::TagMask config_mask(const eval::Tuple& t) const;
};

// Builds the combined program for the first eval::kMaxTags (64) candidates
// (Backtester::run replays longer lists in slices). The base is validated
// once; each candidate is applied as a delta (repair::CandidateChecker)
// and only the rules it touches are diffed against the base, so the cost
// is one base copy plus time proportional to the touched rules.
CombinedProgram build_backtest_program(
    const ndlog::Program& base,
    const std::vector<repair::RepairCandidate>& candidates);

}  // namespace mp::backtest
