// The program-change algebra: each Change names one edit to an NDlog
// program (or a base-tuple insertion/deletion) that a completed meta-
// provenance tree proposes. Every candidate is validated so that repairs
// keep the syntax legal (Section 4.2: deleting a Const that would leave
// `Swi >` incomplete is not allowed).
//
// Candidates are applied as deltas over their base program (README.md):
// a CandidateChecker indexes and validates the base once, then applies a
// candidate's changes to copies of only the rules they name and re-checks
// only those, so one candidate costs time proportional to the rules it
// touches, not to the program.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eval/tuple.h"
#include "meta/meta_tuple.h"
#include "ndlog/ast.h"
#include "ndlog/validate.h"

namespace mp::repair {

enum class ChangeKind : uint8_t {
  ChangeSelConst,    // replace the constant operand of a selection
  ChangeSelOp,       // replace the comparison operator of a selection
  ChangeSelVar,      // replace a variable operand of a selection
  DeleteSel,         // drop a selection predicate
  ChangeAssignConst, // replace a constant in an assignment RHS
  ChangeAssignVar,   // replace the assignment RHS with a variable
  DeleteBodyAtom,    // drop a body predicate (PredFunc deletion)
  ChangeHeadTable,   // retarget the head of an existing rule
  CopyRuleRetarget,  // copy a rule and retarget/permute its head
  DeleteRule,        // drop a whole rule
  InsertBaseTuple,   // manual state injection (e.g. install a flow entry)
  DeleteBaseTuple,   // remove a base tuple
};

const char* to_string(ChangeKind k);

struct Change {
  ChangeKind kind = ChangeKind::ChangeSelConst;
  std::string rule;          // target rule (unused for base-tuple changes)
  size_t index = 0;          // selection / assignment / body-atom ordinal
  size_t side = 0;           // 0 = lhs, 1 = rhs (selection operands)
  Value new_value;           // constant or variable name (as Str)
  ndlog::CmpOp new_op = ndlog::CmpOp::Eq;
  eval::Tuple tuple;         // for Insert/DeleteBaseTuple
  std::string new_head_table;          // for head retargeting
  std::vector<size_t> head_perm;       // argument permutation for retarget
  std::string copy_name;               // name of the copied rule

  // Human-readable description in the paper's style, e.g.
  //   "Changing Swi==2 in r7 to Swi==3".
  std::string describe(const ndlog::Program& p) const;
  // Applies to `p` in place; returns false if the change does not fit the
  // program (stale index, missing rule, undeclared head table, wrong
  // arity). The result is not validated. This whole-program form is the
  // reference the tests hold CandidateChecker to; the library applies
  // candidates through the checker.
  bool apply(ndlog::Program& p) const;
  // The name CopyRuleRetarget gives its copy.
  std::string copied_name() const;
};

struct RepairCandidate {
  std::vector<Change> changes;
  double cost = 0.0;
  std::string description;

  std::string describe(const ndlog::Program& p) const;
};

// The rules a candidate changes relative to its base program. Every base
// rule not listed in `touched` is, in the candidate program, the base rule
// itself.
struct ProgramDelta {
  struct Touched {
    size_t index = 0;                 // position in the base's rules
    std::optional<ndlog::Rule> rule;  // after the candidate; empty: deleted
  };
  std::vector<Touched> touched;    // ascending `index`
  std::vector<ndlog::Rule> added;  // CopyRuleRetarget copies, in change order
};

// Applies and validates the candidates of one base program. Construction
// indexes the base's rules and tables by name and validates the base once
// (O(rules + tables)); after that, delta() costs time proportional to the
// rules the candidate's changes name. Checking only those rules is exact:
// no change edits a table declaration and CopyRuleRetarget refuses names
// that exist, so every untouched rule is a rule of the validated base,
// with the verdict recorded for it. Borrows `base`: it must outlive the
// checker.
class CandidateChecker {
 public:
  explicit CandidateChecker(const ndlog::Program& base);

  // The first base rule named `name`, as Program::find_rule finds it.
  const ndlog::Rule* base_rule(std::string_view name) const;

  // The candidate's delta, or nullopt if a change does not apply or the
  // candidate program would not validate.
  std::optional<ProgramDelta> delta(const RepairCandidate& cand) const;
  bool valid(const RepairCandidate& cand) const {
    return delta(cand).has_value();
  }
  // The candidate program: the base with `d` spliced in (edits in place,
  // deletions removed, copies appended in change order).
  ndlog::Program splice(ProgramDelta d) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  const ndlog::Program& base_;
  ndlog::TableIndex tables_;
  // Name -> first base rule position; further rules sharing the name
  // (an invalid base) are chained through next_same_name_.
  std::unordered_map<std::string_view, uint32_t> first_rule_;
  std::vector<uint32_t> next_same_name_;
  std::vector<bool> rule_ok_;  // per-rule verdict of each base rule
  size_t invalid_rules_ = 0;   // base rules failing the per-rule check
  size_t shared_names_ = 0;    // names carried by more than one base rule
  bool tables_ok_ = true;      // the table declarations validate
};

// Applies all changes of a candidate to `base`; nullopt if any change
// fails to apply or the result does not validate. Equivalent to copying
// `base`, applying each Change in order and validating the result.
std::optional<ndlog::Program> apply_candidate(const ndlog::Program& base,
                                              const RepairCandidate& cand);

// Base tuples a candidate wants inserted (manual repairs).
std::vector<eval::Tuple> candidate_insertions(const RepairCandidate& cand);
std::vector<eval::Tuple> candidate_deletions(const RepairCandidate& cand);

}  // namespace mp::repair
