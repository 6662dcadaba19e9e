// Compiled rule plans for the evaluation engine.
//
// At Engine construction every ndlog::Rule is compiled once:
//   - table names are interned to dense TableIds (ndlog::Catalog),
//   - variable names are interned to dense frame slots, so the join-time
//     environment is a flat std::vector<Value> with an undo trail instead
//     of a string-keyed map copied per candidate row,
//   - each (rule, trigger-atom) pair gets a TriggerPlan: a greedy join
//     order over the remaining body atoms with, per atom, the argument
//     positions that are constants, that bind fresh slots, or that must
//     match already-bound slots. Atoms with at least one bound column are
//     executed as hash-index probes (the column set is registered in
//     IndexSpecs and maintained by every TableStore); only atoms with
//     zero bound columns fall back to a full scan.
//   - assignments, selections and head arguments are compiled to
//     slot-indexed expression trees (SlotExpr), so rule finishing never
//     touches a string either.
//   - selections are pushed down into the join: a selection whose
//     variables are all bound by the trigger / earlier atom steps (and
//     none of which is reassigned by an `:=` assignment, whose value at
//     finish could differ) is attached to the step that binds its last
//     variable and filters candidate rows during that step's probe/scan,
//     instead of only after the full join at finish. The pushed set is
//     recorded per trigger plan (pushed_mask) so rule finishing skips
//     exactly those; EngineOptions::pushdown_selections=false restores
//     the finish-only evaluation for differential cross-checks.
#pragma once

#include <cstdint>
#include <vector>

#include "ndlog/ast.h"
#include "ndlog/schema.h"
#include "util/value.h"

namespace mp::eval {

using TableId = ndlog::Catalog::TableId;

// Flat slot frame: the join-time variable environment. Binding a slot
// appends to the trail; backtracking rewinds to a mark. A slot that was
// already bound when overwritten (assignments may shadow join variables)
// has its previous value saved for restoration. The trail is a plain u32
// per bind (high bit = "a saved Value must be restored", kept on a side
// stack) — a fresh bind, the overwhelmingly common case, never constructs
// or destroys a Value for its undo record.
struct Frame {
  static constexpr uint32_t kSavedBit = 0x80000000u;
  std::vector<Value> slots;
  std::vector<uint8_t> bound;
  std::vector<uint32_t> trail;
  std::vector<Value> saved;  // previous values for kSavedBit trail entries

  // Stale slot Values are kept when the size already fits (every read is
  // guarded by `bound`, and bind()'s copy-assign then reuses any string
  // capacity): resetting is two cheap clears, not nslots Value
  // destructions, on the per-trigger-attempt hot path.
  void reset(size_t nslots) {
    if (slots.size() != nslots) slots.resize(nslots);
    bound.assign(nslots, 0);
    trail.clear();
    saved.clear();
  }
  size_t mark() const { return trail.size(); }
  void bind(uint32_t slot, const Value& v) {
    trail.push_back(slot);
    slots[slot] = v;
    bound[slot] = 1;
  }
  // Bind that may overwrite an existing binding (assignment semantics).
  void rebind(uint32_t slot, Value v) {
    if (bound[slot]) {
      trail.push_back(slot | kSavedBit);
      saved.push_back(std::move(slots[slot]));
    } else {
      trail.push_back(slot);
      bound[slot] = 1;
    }
    slots[slot] = std::move(v);
  }
  void undo_to(size_t m) {
    while (trail.size() > m) {
      const uint32_t u = trail.back();
      trail.pop_back();
      if (u & kSavedBit) {
        slots[u & ~kSavedBit] = std::move(saved.back());
        saved.pop_back();
      } else {
        bound[u] = 0;
      }
    }
  }
};

// Slot-compiled expression tree (flattened into a node vector).
// eval() fails if a referenced slot is unbound or arithmetic is invalid,
// mirroring eval_expr over the string-keyed Env.
struct SlotExpr {
  struct Node {
    ndlog::Expr::Kind kind = ndlog::Expr::Kind::Const;
    ndlog::ArithOp op = ndlog::ArithOp::Add;
    uint32_t slot = 0;
    int32_t lhs = -1, rhs = -1;
    Value cval;
  };
  std::vector<Node> nodes;
  int32_t root = -1;

  bool eval(const Frame& f, Value& out) const { return eval_node(f, root, out); }

  // Zero-copy operand access for selection evaluation: a plain Var/Const
  // root yields a pointer into the frame/plan (scratch untouched);
  // arithmetic evaluates into `scratch`. nullptr = unbound slot or
  // invalid arithmetic (the same failures eval() reports).
  const Value* eval_ref(const Frame& f, Value& scratch) const {
    if (root < 0) return nullptr;
    const Node& n = nodes[root];
    if (n.kind == ndlog::Expr::Kind::Var) {
      return f.bound[n.slot] ? &f.slots[n.slot] : nullptr;
    }
    if (n.kind == ndlog::Expr::Kind::Const) return &n.cval;
    return eval_node(f, root, scratch) ? &scratch : nullptr;
  }

 private:
  bool eval_node(const Frame& f, int32_t idx, Value& out) const;
};

// One unification action for an atom argument position.
struct ArgOp {
  enum class Kind : uint8_t {
    Const,  // row[col] must equal cval
    Bind,   // row[col] binds a fresh slot
    Check,  // row[col] must equal the already-bound slot
  };
  Kind kind = Kind::Const;
  uint32_t col = 0;
  uint32_t slot = 0;
  Value cval;
};

// Source of one component of an index probe key.
struct KeyPart {
  bool is_const = false;
  uint32_t slot = 0;
  Value cval;
};

// One join step: how to enumerate candidate rows for a body atom once the
// preceding steps (and the trigger) have bound part of the frame.
struct AtomStep {
  enum class Access : uint8_t {
    Scan,         // no bound columns: iterate the whole store
    Probe,        // >=1 bound column: probe the secondary hash index
    TriggerSelf,  // event atom matching the triggering tuple itself
  };
  TableId table = 0;
  uint32_t body_pos = 0;  // index into rule.body
  uint32_t arity = 0;
  Access access = Access::Scan;
  int32_t index_id = -1;           // into IndexSpecs for `table` when Probe
  std::vector<KeyPart> key;        // probe key parts, in index-column order
  std::vector<ArgOp> full_ops;     // all args (scan / forced-scan path)
  std::vector<ArgOp> residual_ops; // args not covered by the probe key
  // Selections (indices into CompiledRule::sels) fully bound once this
  // step's variables are unified: evaluated per candidate row to prune
  // the join early (selection pushdown).
  std::vector<uint32_t> sels;
};

// The compiled execution plan for one (rule, trigger body atom) pair.
struct TriggerPlan {
  bool dead = false;  // can never fire (e.g. unreachable event atom)
  uint32_t arity = 0;
  std::vector<ArgOp> trigger_ops;
  // Selections fully bound by the trigger atom alone (evaluated once per
  // firing attempt, before any join step runs).
  std::vector<uint32_t> trigger_sels;
  // Bit i set = selection i is evaluated inside the join (trigger_sels or
  // some step's sels) for this plan; rule finishing skips those.
  // Selections with index >= 64 are never pushed down.
  uint64_t pushed_mask = 0;
  std::vector<AtomStep> steps;  // join order chosen by the planner
};

struct CompiledAssign {
  uint32_t slot = 0;
  SlotExpr expr;
};
struct CompiledSelection {
  ndlog::CmpOp op = ndlog::CmpOp::Eq;
  SlotExpr lhs, rhs;
};

struct CompiledRule {
  uint32_t nslots = 0;
  TableId head_table = 0;   // interned rule.head.table (no hash per firing)
  uint32_t log_rule = ~0u;  // EventLog RuleId; filled in by the engine
  std::vector<CompiledAssign> assigns;
  std::vector<CompiledSelection> sels;
  std::vector<SlotExpr> head_args;
  std::vector<TriggerPlan> triggers;  // one per body atom
};

// Projection of `row` onto an index's column set; false when the row is
// too short to project. Shared by TableStore and HistoryStore so their
// buckets follow one contract: a row that cannot project can never match
// the index's atoms/patterns and is kept out of the buckets entirely.
inline bool project_key(const Row& row, const std::vector<uint32_t>& cols,
                        Row& key) {
  key.clear();
  key.reserve(cols.size());
  for (uint32_t c : cols) {
    if (c >= row.size()) return false;
    key.push_back(row[c]);
  }
  return true;
}

// Per-table registry of secondary-index column sets, fixed at engine
// construction (all plans are compiled before any TableStore exists).
class IndexSpecs {
 public:
  using Columns = std::vector<uint32_t>;

  // Registers `cols` (must be sorted ascending) for `table`, deduplicating;
  // returns the dense index id within that table.
  int32_t ensure(TableId table, Columns cols);
  // Column sets registered for `table`; nullptr if none.
  const std::vector<Columns>* for_table(TableId table) const {
    if (table >= specs_.size() || specs_[table].empty()) return nullptr;
    return &specs_[table];
  }

 private:
  std::vector<std::vector<Columns>> specs_;
};

// Compiles `rule`, interning tables into `catalog` and registering the
// index column sets its probe steps need into `specs`.
CompiledRule compile_rule(const ndlog::Rule& rule, ndlog::Catalog& catalog,
                          IndexSpecs& specs);

}  // namespace mp::eval
