// Meta-provenance forest exploration (Sections 3.3-3.5, Figure 17).
//
// The operator states a symptom: a tuple pattern that should exist but is
// missing (negative symptom) or exists but should not (positive symptom).
// The explorer maintains a priority queue of partial trees ordered by
// cost; each tree is represented by its undischarged obligations (goals),
// the program changes applied so far, and its accumulated cost. Expanding
// a goal consults
//   - the program's meta tuples (which Const / Oper / PredFunc / Assign
//     sites could change), and
//   - the engine's event log ("history lookups": which joins almost fired,
//     which historical tuples could bind each body atom),
// and emits child trees, forking once per individually-sufficient choice
// (Section 3.3). Conjunctions accumulate constraint pools that the mini
// solver discharges (Section 3.4). Completed trees yield RepairCandidates
// in cost order (Appendix D's optimality argument carries over: child cost
// >= parent cost, and every expansion pays a small epsilon).
#pragma once

#include <string>
#include <vector>

#include "eval/engine.h"
#include "provenance/query.h"
#include "repair/change.h"
#include "repair/cost_model.h"
#include "solver/mini_solver.h"
#include "util/timer.h"

namespace mp::repair {

struct Symptom {
  enum class Polarity : uint8_t { Missing, Unwanted };
  Polarity polarity = Polarity::Missing;
  prov::TuplePattern pattern;
  std::string description;
};

struct RepairSpaceConfig {
  // Tables into which a "manual" base-tuple insertion is a legitimate
  // repair (e.g. FlowTable: the operator can install an entry by hand).
  std::vector<std::string> insertable_tables;
  // Label used when describing manual insertions (paper: "Manually
  // installing a flow entry").
  std::string insert_label = "Manually installing a flow entry";

  size_t max_const_variants = 4; // constants proposed per failing selection
  size_t max_var_variants = 4;   // variable swaps proposed per site
  size_t max_head_perms = 4;     // head permutations for copy/retarget
  double max_cost = 12.0;        // cut-off cost (Section 3.5)
};

struct ExploreStats {
  size_t trees_forked = 0;
  size_t trees_completed = 0;
  size_t goals_expanded = 0;
  size_t history_tuples_scanned = 0;
  solver::SolveStats solver;
};

class ForestExplorer {
 public:
  ForestExplorer(const eval::Engine& engine, RepairSpaceConfig config,
                 const CostModel& costs = default_cost_model());

  // Explores the forest and returns candidates sorted by cost (ascending),
  // deduplicated, validated against the program. `phases` (optional)
  // accumulates the Fig-9a breakdown; `stats` (optional) exploration
  // counters.
  std::vector<RepairCandidate> explore(const Symptom& symptom,
                                       PhaseClock* phases = nullptr,
                                       ExploreStats* stats = nullptr);

 private:
  struct Goal {
    prov::TuplePattern pattern;
    bool make_appear = true;
    size_t depth = 0;
  };
  struct TreeState {
    std::vector<Goal> pending;
    std::vector<Change> changes;
    double cost = 0.0;
    size_t expansions = 0;
  };

  void expand(const TreeState& st, std::vector<TreeState>& out);
  void expand_appear(const TreeState& st, const Goal& goal,
                     std::vector<TreeState>& out);
  void expand_disappear(const TreeState& st, const Goal& goal,
                        std::vector<TreeState>& out);

  // Join enumeration over historical tuples; returns consistent variable
  // environments (deduplicated on the variables that matter).
  struct JoinResult {
    eval::Env env;
    std::vector<eval::TupleRef> bound;    // one per bound body atom (handles)
    std::vector<size_t> unbound_atoms;    // body atoms with no history match
  };
  std::vector<JoinResult> enumerate_joins(const ndlog::Rule& rule);

  // Repair options for one failing selection under `env`; each option is a
  // single Change.
  std::vector<Change> selection_fix_options(const ndlog::Rule& rule,
                                            size_t sel_idx,
                                            const eval::Env& env);
  // Options to make a selection *fail* under `env` (positive symptoms).
  std::vector<Change> selection_break_options(const ndlog::Rule& rule,
                                              size_t sel_idx,
                                              const eval::Env& env);
  // Options to fix a head-field mismatch (assignment rewrites).
  std::vector<Change> head_fix_options(const ndlog::Rule& rule,
                                       const std::string& head_var,
                                       const Value& needed,
                                       const eval::Env& env);

  std::vector<Change> manual_insert_options(const Goal& goal);
  std::vector<Change> retarget_options(const Goal& goal);

  // Historical values observed for a variable's column, deterministic
  // order, capped.
  std::vector<Value> domain_of_var(const ndlog::Rule& rule,
                                   const std::string& var);

  const eval::Engine& engine_;
  RepairSpaceConfig cfg_;
  const CostModel& costs_;
  PhaseClock* phases_ = nullptr;
  ExploreStats* stats_ = nullptr;
};

}  // namespace mp::repair
