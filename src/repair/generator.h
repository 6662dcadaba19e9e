// The repair engine's one entry point (Figure 5 / Figure 17): given an
// engine whose log captured the buggy execution and a symptom, produce a
// cost-ordered list of repair candidates.
//
// The operator states a symptom: a tuple pattern that should exist but is
// missing (negative symptom) or exists but should not (positive symptom).
// Generation explores the meta-provenance forest (Sections 3.3-3.5): a
// priority queue of partial trees ordered by cost; each tree is its
// undischarged obligations (goals), the program changes applied so far,
// and its accumulated cost. Expanding a goal consults
//   - the program's meta tuples (which Const / Oper / PredFunc / Assign
//     sites could change), and
//   - the engine's event log ("history lookups": which joins almost fired,
//     which historical tuples could bind each body atom),
// and forks the tree once per individually-sufficient choice (Section
// 3.3). Conjunctions accumulate constraint pools that the mini solver
// discharges (Section 3.4). Completed trees yield RepairCandidates in cost
// order (Appendix D's optimality argument carries over: child cost >=
// parent cost, and every expansion pays a small epsilon).
//
// Phase timings are accounted the way Figure 9a reports them (history
// lookups / constraint solving / patch generation); replay time is added
// by the backtester.
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
  size_t goals_expanded = 0;
  size_t history_tuples_scanned = 0;
  solver::SolveStats solver;
};

struct GenerationReport {
  std::vector<RepairCandidate> candidates;
  PhaseClock phases;
  ExploreStats stats;
};

class RepairGenerator {
 public:
  RepairGenerator(const eval::Engine& engine, RepairSpaceConfig config,
                  const CostModel& costs = default_cost_model())
      : engine_(engine), config_(std::move(config)), costs_(costs) {}

  // Candidates sorted by cost (ascending), deduplicated by description and
  // validated against the program, with the phase times and exploration
  // counters of this call.
  GenerationReport generate(const Symptom& symptom) const;

 private:
  const eval::Engine& engine_;
  RepairSpaceConfig config_;
  const CostModel& costs_;
};

}  // namespace mp::repair
