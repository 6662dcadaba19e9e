// The "mini-solver" (Section 5.1): decides conjunctions of binary
// comparisons over integer/string variables. The paper routes trivial
// constraint sets to a hand-rolled solver and the rest to Z3; our pools
// stay within the fragment {==, !=, <, >, <=, >=} over int64 plus string
// (dis)equality, which this solver decides completely:
//
//   1. union-find merges ==-connected variables into classes;
//   2. each class keeps an interval [lo, hi], an exclusion set, and an
//      optional pinned string;
//   3. ordering constraints between classes propagate bounds to fixpoint;
//   4. a bounded backtracking pass assigns concrete values (preferring
//      the smallest feasible, so repairs like "6 < K -> K = 7" come out
//      minimal, matching the paper's cheapest-change-first behaviour).
//      Intervals start at [-1e9, 1e9]; only a pool with no solution there
//      is solved again over all of int64 (e.g. K == 4294967295).
//
// solve_negation() finds an assignment that satisfies `keep` while
// violating at least one constraint of `negate` - used when a positive
// symptom must be made to disappear (Section 4.2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "solver/constraint.h"

namespace mp::solver {

using Assignment = std::map<std::string, Value>;

struct SolveStats {
  size_t calls = 0;
  size_t backtracks = 0;
};

class MiniSolver {
 public:
  // Satisfying assignment for the conjunction, or nullopt if UNSAT.
  static std::optional<Assignment> solve(const ConstraintPool& pool,
                                         SolveStats* stats = nullptr);

  // Assignment satisfying all of `keep` and violating >= 1 of `negate`.
  static std::optional<Assignment> solve_negation(const ConstraintPool& keep,
                                                  const ConstraintPool& negate,
                                                  SolveStats* stats = nullptr);

  // True iff the conjunction is satisfiable.
  static bool satisfiable(const ConstraintPool& pool, SolveStats* stats = nullptr);

  // Check a complete assignment against a pool.
  static bool check(const ConstraintPool& pool, const Assignment& a);
};

}  // namespace mp::solver
