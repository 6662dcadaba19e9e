// Cost model for program changes (Section 3.5). Costs encode the
// implausibility of an edit, following the bug-fix-pattern study of
// Pan et al. [41]: small tweaks to existing predicates (off-by-one
// constants, flipped operators) are the most common real-world fixes and
// get the lowest costs; structural edits (deleting predicates, retargeting
// heads, new rules) are progressively more expensive. The forest explorer
// pops partial trees in cost order, so candidates emerge cheapest-first.
#pragma once

#include "repair/change.h"

namespace mp::repair {

struct CostModel {
  double change_const_base = 2.0;     // constant replacement
  double change_const_near = 1.0;     // ...when |new - old| == 1
  double change_op = 2.0;             // operator swap (== -> !=, < -> <=)
  double change_var = 3.5;            // variable substitution
  double delete_sel = 4.0;            // drop a selection predicate
  double change_assign_const = 2.5;
  double change_assign_var = 3.0;
  double delete_atom = 5.0;           // drop a body predicate
  double change_head = 5.0;           // retarget an existing head
  double copy_rule = 6.0;             // duplicate + retarget a rule
  double delete_rule = 8.0;
  double insert_tuple = 2.0;          // manual state injection
  double delete_tuple = 2.5;
  double head_perm_extra = 0.5;       // per displaced head argument
  double expansion_epsilon = 0.01;    // per-vertex exploration cost, so the
                                      // search always makes progress (App. D)

  // Cost of one change, given the current program (to detect "near"
  // constant changes).
  double cost(const Change& c, const ndlog::Program& p) const;
};

const CostModel& default_cost_model();

}  // namespace mp::repair
