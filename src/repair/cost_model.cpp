#include "repair/cost_model.h"

namespace mp::repair {

namespace {

// Finds the constant currently at a change's target site, if any.
const Value* site_constant(const Change& c, const ndlog::Program& p) {
  const ndlog::Rule* r = p.find_rule(c.rule);
  if (r == nullptr) return nullptr;
  const ndlog::ExprPtr* slot = nullptr;
  if (c.kind == ChangeKind::ChangeSelConst && c.index < r->sels.size()) {
    slot = c.side == 0 ? &r->sels[c.index].lhs : &r->sels[c.index].rhs;
  } else if (c.kind == ChangeKind::ChangeAssignConst &&
             c.index < r->assigns.size()) {
    slot = &r->assigns[c.index].expr;
  }
  if (slot == nullptr || !*slot || !(*slot)->is_const()) return nullptr;
  return &(*slot)->cval();
}

// Whether a change replaces the constant at its site by a neighbouring
// integer (an off-by-one edit). A difference that leaves int64 is far.
bool near_edit(const Change& c, const ndlog::Program& p) {
  const Value* old = site_constant(c, p);
  if (old == nullptr || !old->is_int() || !c.new_value.is_int()) return false;
  int64_t d;
  if (__builtin_sub_overflow(old->as_int(), c.new_value.as_int(), &d))
    return false;
  return d == 1 || d == -1;
}

}  // namespace

double CostModel::cost(const Change& c, const ndlog::Program& p) const {
  switch (c.kind) {
    case ChangeKind::ChangeSelConst:
      return near_edit(c, p) ? change_const_near : change_const_base;
    case ChangeKind::ChangeSelOp: return change_op;
    case ChangeKind::ChangeSelVar: return change_var;
    case ChangeKind::DeleteSel: return delete_sel;
    case ChangeKind::ChangeAssignConst:
      return near_edit(c, p) ? change_const_near + 0.5 : change_assign_const;
    case ChangeKind::ChangeAssignVar: return change_assign_var;
    case ChangeKind::DeleteBodyAtom: return delete_atom;
    case ChangeKind::ChangeHeadTable:
    case ChangeKind::CopyRuleRetarget: {
      size_t displaced = 0;
      for (size_t i = 0; i < c.head_perm.size(); ++i) {
        if (c.head_perm[i] != i) ++displaced;
      }
      const double base =
          c.kind == ChangeKind::ChangeHeadTable ? change_head : copy_rule;
      return base + head_perm_extra * static_cast<double>(displaced);
    }
    case ChangeKind::DeleteRule: return delete_rule;
    case ChangeKind::InsertBaseTuple: return insert_tuple;
    case ChangeKind::DeleteBaseTuple: return delete_tuple;
  }
  return 10.0;
}

const CostModel& default_cost_model() {
  static const CostModel model;
  return model;
}

}  // namespace mp::repair
