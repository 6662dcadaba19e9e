#include "eval/plan.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace mp::eval {

bool SlotExpr::eval_node(const Frame& f, int32_t idx, Value& out) const {
  if (idx < 0) return false;
  const Node& n = nodes[idx];
  switch (n.kind) {
    case ndlog::Expr::Kind::Const:
      out = n.cval;
      return true;
    case ndlog::Expr::Kind::Var:
      if (!f.bound[n.slot]) return false;
      out = f.slots[n.slot];
      return true;
    case ndlog::Expr::Kind::Binary: {
      Value a, b;
      if (!eval_node(f, n.lhs, a) || !eval_node(f, n.rhs, b)) return false;
      return ndlog::arith_eval(n.op, a, b, out);
    }
  }
  return false;
}

int32_t IndexSpecs::ensure(TableId table, Columns cols) {
  if (table >= specs_.size()) specs_.resize(table + 1);
  auto& v = specs_[table];
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == cols) return static_cast<int32_t>(i);
  }
  v.push_back(std::move(cols));
  return static_cast<int32_t>(v.size() - 1);
}

namespace {

// Variable-name -> frame-slot interner, per rule.
struct SlotMap {
  std::unordered_map<std::string, uint32_t> ids;
  uint32_t next = 0;
  uint32_t of(const std::string& name) {
    auto [it, inserted] = ids.try_emplace(name, next);
    if (inserted) ++next;
    return it->second;
  }
};

void grow(std::vector<uint8_t>& bound, uint32_t slot) {
  if (slot >= bound.size()) bound.resize(slot + 1, 0);
}

int32_t compile_expr(const ndlog::Expr& e, SlotMap& sm, SlotExpr& out) {
  SlotExpr::Node n;
  n.kind = e.kind();
  switch (e.kind()) {
    case ndlog::Expr::Kind::Const:
      n.cval = e.cval();
      break;
    case ndlog::Expr::Kind::Var:
      n.slot = sm.of(e.var_name());
      break;
    case ndlog::Expr::Kind::Binary:
      n.op = e.op();
      n.lhs = compile_expr(*e.lhs(), sm, out);
      n.rhs = compile_expr(*e.rhs(), sm, out);
      break;
  }
  out.nodes.push_back(std::move(n));
  return static_cast<int32_t>(out.nodes.size() - 1);
}

SlotExpr compile_expr(const ndlog::Expr& e, SlotMap& sm) {
  SlotExpr out;
  out.root = compile_expr(e, sm, out);
  return out;
}

// Unification ops for the trigger atom (everything is a residual check;
// marks freshly bound slots). Returns false on a non-unifiable arg.
bool trigger_ops(const ndlog::Atom& atom, SlotMap& sm,
                 std::vector<uint8_t>& bound, std::vector<ArgOp>& out) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const ndlog::Expr& arg = *atom.args[i];
    ArgOp op;
    op.col = static_cast<uint32_t>(i);
    if (arg.is_const()) {
      op.kind = ArgOp::Kind::Const;
      op.cval = arg.cval();
    } else if (arg.is_var()) {
      op.slot = sm.of(arg.var_name());
      grow(bound, op.slot);
      if (bound[op.slot]) {
        op.kind = ArgOp::Kind::Check;
      } else {
        op.kind = ArgOp::Kind::Bind;
        bound[op.slot] = 1;
      }
    } else {
      return false;  // binary exprs are not legal atom args
    }
    out.push_back(std::move(op));
  }
  return true;
}

// Number of atom args that would be bound at join time (consts plus
// variables already bound by earlier steps) — the planner's selectivity
// score. Returns -1 for atoms that can never unify.
int bound_cols(const ndlog::Atom& atom, SlotMap& sm,
               const std::vector<uint8_t>& bound) {
  int n = 0;
  for (const auto& argp : atom.args) {
    const ndlog::Expr& arg = *argp;
    if (arg.is_const()) {
      ++n;
    } else if (arg.is_var()) {
      // of() on a body var never creates a new slot here: all body vars
      // were pre-interned by compile_rule.
      const uint32_t slot = sm.of(arg.var_name());
      if (slot < bound.size() && bound[slot]) ++n;
    } else {
      return -1;
    }
  }
  return n;
}

// Builds the probe/scan step for `atom` given the bound set, registering
// the index spec; marks the atom's fresh variables bound.
bool make_step(const ndlog::Atom& atom, uint32_t body_pos, SlotMap& sm,
               std::vector<uint8_t>& bound, ndlog::Catalog& catalog,
               IndexSpecs& specs, AtomStep& st) {
  st.table = catalog.intern(atom.table);
  st.body_pos = body_pos;
  st.arity = static_cast<uint32_t>(atom.args.size());
  const std::vector<uint8_t> bound_at_entry = bound;
  std::vector<std::pair<uint32_t, KeyPart>> key_by_col;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const ndlog::Expr& arg = *atom.args[i];
    ArgOp op;
    op.col = static_cast<uint32_t>(i);
    if (arg.is_const()) {
      op.kind = ArgOp::Kind::Const;
      op.cval = arg.cval();
      KeyPart kp;
      kp.is_const = true;
      kp.cval = arg.cval();
      key_by_col.emplace_back(op.col, std::move(kp));
      st.full_ops.push_back(std::move(op));
    } else if (arg.is_var()) {
      op.slot = sm.of(arg.var_name());
      grow(bound, op.slot);
      if (bound[op.slot]) {
        op.kind = ArgOp::Kind::Check;
        if (op.slot < bound_at_entry.size() && bound_at_entry[op.slot]) {
          // Bound by an earlier step: part of the probe key.
          KeyPart kp;
          kp.slot = op.slot;
          key_by_col.emplace_back(op.col, std::move(kp));
        } else {
          // Repeated variable within this atom: checked per row.
          st.residual_ops.push_back(op);
        }
        st.full_ops.push_back(std::move(op));
      } else {
        op.kind = ArgOp::Kind::Bind;
        bound[op.slot] = 1;
        st.residual_ops.push_back(op);
        st.full_ops.push_back(std::move(op));
      }
    } else {
      return false;
    }
  }
  if (key_by_col.empty()) {
    st.access = AtomStep::Access::Scan;
    st.residual_ops = st.full_ops;
  } else {
    std::sort(key_by_col.begin(), key_by_col.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    IndexSpecs::Columns cols;
    cols.reserve(key_by_col.size());
    st.key.reserve(key_by_col.size());
    for (auto& [col, part] : key_by_col) {
      cols.push_back(col);
      st.key.push_back(std::move(part));
    }
    st.access = AtomStep::Access::Probe;
    st.index_id = specs.ensure(st.table, std::move(cols));
  }
  return true;
}

// Slots a compiled expression reads (Var nodes).
void collect_slots(const SlotExpr& e, std::vector<uint32_t>& out) {
  for (const SlotExpr::Node& n : e.nodes) {
    if (n.kind == ndlog::Expr::Kind::Var) out.push_back(n.slot);
  }
}

// Selection-pushdown analysis: for each selection, the set of slots it
// reads, and whether pushing it into the join is sound. A selection is
// pushable iff none of its variables is an assignment target — an `:=`
// may rebind (shadow) a join variable at finish, so the join-time value
// could differ from the one the finish-time evaluation would see.
struct SelInfo {
  std::vector<uint32_t> slots;
  bool pushable = true;
};

std::vector<SelInfo> analyze_sels(const CompiledRule& cr) {
  std::vector<uint8_t> assigned;
  for (const CompiledAssign& a : cr.assigns) {
    grow(assigned, a.slot);
    assigned[a.slot] = 1;
  }
  std::vector<SelInfo> out(cr.sels.size());
  for (size_t i = 0; i < cr.sels.size(); ++i) {
    collect_slots(cr.sels[i].lhs, out[i].slots);
    collect_slots(cr.sels[i].rhs, out[i].slots);
    for (uint32_t s : out[i].slots) {
      if (s < assigned.size() && assigned[s]) out[i].pushable = false;
    }
    if (i >= 64) out[i].pushable = false;  // pushed_mask is 64 bits wide
  }
  return out;
}

bool all_bound(const std::vector<uint32_t>& slots,
               const std::vector<uint8_t>& bound) {
  for (uint32_t s : slots) {
    if (s >= bound.size() || !bound[s]) return false;
  }
  return true;
}

// Single-node expression accessors for the const-fold below.
const SlotExpr::Node* single_node(const SlotExpr& e) {
  return e.nodes.size() == 1 ? &e.nodes[0] : nullptr;
}

// Folds trigger selections of the form `Var == Const` (either side) into
// a constant arg check on a trigger column that binds the variable:
// `cmp_eval(Eq, a, b)` is exactly `a == b`, so prepending
// ArgOp{Const, col, cval} to the trigger ops rejects a mismatching
// trigger tuple with one Value compare instead of running the selection
// machinery per firing. The folded selection is removed from
// trigger_sels; its pushed_mask bit stays set, so finish_rule skips it
// exactly as it would any pushed selection.
void fold_const_trigger_sels(const CompiledRule& cr, TriggerPlan& tp) {
  auto it = tp.trigger_sels.begin();
  while (it != tp.trigger_sels.end()) {
    const CompiledSelection& sel = cr.sels[*it];
    const SlotExpr::Node* l = single_node(sel.lhs);
    const SlotExpr::Node* r = single_node(sel.rhs);
    const SlotExpr::Node* var = nullptr;
    const SlotExpr::Node* cst = nullptr;
    if (sel.op == ndlog::CmpOp::Eq && l != nullptr && r != nullptr) {
      if (l->kind == ndlog::Expr::Kind::Var &&
          r->kind == ndlog::Expr::Kind::Const) {
        var = l;
        cst = r;
      } else if (r->kind == ndlog::Expr::Kind::Var &&
                 l->kind == ndlog::Expr::Kind::Const) {
        var = r;
        cst = l;
      }
    }
    uint32_t col = 0;
    bool found = false;
    if (var != nullptr) {
      // The selection was pushed to the trigger, so its variable is bound
      // by a Bind op in the trigger itself.
      for (const ArgOp& op : tp.trigger_ops) {
        if (op.kind == ArgOp::Kind::Bind && op.slot == var->slot) {
          col = op.col;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      ++it;
      continue;
    }
    ArgOp chk;
    chk.kind = ArgOp::Kind::Const;
    chk.col = col;
    chk.cval = cst->cval;
    tp.trigger_ops.insert(tp.trigger_ops.begin(), std::move(chk));
    it = tp.trigger_sels.erase(it);
  }
}

}  // namespace

CompiledRule compile_rule(const ndlog::Rule& rule, ndlog::Catalog& catalog,
                          IndexSpecs& specs) {
  CompiledRule cr;
  SlotMap sm;
  // Deterministic slot numbering: body variables in order of appearance,
  // then any variables introduced by assignments / selections / the head.
  for (const auto& atom : rule.body) {
    for (const auto& arg : atom.args) {
      std::vector<std::string> vars;
      arg->collect_vars(vars);
      for (const auto& v : vars) sm.of(v);
    }
  }
  for (const auto& asg : rule.assigns) {
    cr.assigns.push_back(CompiledAssign{sm.of(asg.var), compile_expr(*asg.expr, sm)});
  }
  for (const auto& sel : rule.sels) {
    cr.sels.push_back(CompiledSelection{sel.op, compile_expr(*sel.lhs, sm),
                                        compile_expr(*sel.rhs, sm)});
  }
  for (const auto& arg : rule.head.args) {
    cr.head_args.push_back(compile_expr(*arg, sm));
  }
  cr.head_table = catalog.intern(rule.head.table);
  const std::vector<SelInfo> sel_info = analyze_sels(cr);

  cr.triggers.resize(rule.body.size());
  for (size_t t = 0; t < rule.body.size(); ++t) {
    TriggerPlan& tp = cr.triggers[t];
    tp.arity = static_cast<uint32_t>(rule.body[t].args.size());
    std::vector<uint8_t> bound;
    if (!trigger_ops(rule.body[t], sm, bound, tp.trigger_ops)) {
      tp.dead = true;
      continue;
    }
    // Pushdown: attach each pushable selection to the earliest point its
    // slots are all bound — the trigger itself, or the step that binds
    // the last of them (checked again after every step below).
    auto push_ready_sels = [&](std::vector<uint32_t>& into) {
      for (uint32_t i = 0; i < sel_info.size(); ++i) {
        if (!sel_info[i].pushable || (tp.pushed_mask >> i) & 1) continue;
        if (!all_bound(sel_info[i].slots, bound)) continue;
        tp.pushed_mask |= uint64_t{1} << i;
        into.push_back(i);
      }
    };
    push_ready_sels(tp.trigger_sels);
    fold_const_trigger_sels(cr, tp);
    std::vector<size_t> remaining;
    for (size_t b = 0; b < rule.body.size(); ++b) {
      if (b != t) remaining.push_back(b);
    }
    while (!remaining.empty() && !tp.dead) {
      // Greedy join order: event self-joins first (a single candidate),
      // then the atom with the most bound columns.
      size_t pick = 0;
      int best = -2;
      for (size_t i = 0; i < remaining.size(); ++i) {
        const ndlog::Atom& a = rule.body[remaining[i]];
        const TableId tid = catalog.intern(a.table);
        int score;
        if (catalog.is_event(tid)) {
          // Transient tables only match the triggering tuple itself.
          score = a.table == rule.body[t].table
                      ? static_cast<int>(a.args.size()) + 1
                      : -1;
        } else {
          score = bound_cols(a, sm, bound);
        }
        if (score > best) {
          best = score;
          pick = i;
        }
      }
      if (best < 0) {
        // Some atom can never be satisfied from this trigger.
        tp.dead = true;
        break;
      }
      const size_t body_pos = remaining[pick];
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
      const ndlog::Atom& atom = rule.body[body_pos];
      const TableId tid = catalog.intern(atom.table);
      AtomStep st;
      if (catalog.is_event(tid)) {
        st.table = tid;
        st.body_pos = static_cast<uint32_t>(body_pos);
        st.arity = static_cast<uint32_t>(atom.args.size());
        st.access = AtomStep::Access::TriggerSelf;
        if (!trigger_ops(atom, sm, bound, st.full_ops)) {
          tp.dead = true;
          break;
        }
        st.residual_ops = st.full_ops;
      } else if (!make_step(atom, static_cast<uint32_t>(body_pos), sm, bound,
                            catalog, specs, st)) {
        tp.dead = true;
        break;
      }
      push_ready_sels(st.sels);
      tp.steps.push_back(std::move(st));
    }
  }
  cr.nslots = sm.next;
  return cr;
}

}  // namespace mp::eval
