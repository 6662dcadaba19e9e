#include "repair/forest.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <set>

#include "obs/span.h"

namespace mp::repair {

namespace {

// Clock-only phase ids interned once per process (src/obs/phase.h): a
// scope over one history probe or solver call costs two clock reads and
// a vector index.
const obs::PhaseId kPhaseHistory = obs::phase_id("history lookups");
const obs::PhaseId kPhaseSolve = obs::phase_id("constraint solving");
const obs::PhaseId kPhasePatch = obs::phase_id("patch generation");

using eval::Env;
using eval::Tuple;
using eval::eval_expr;
using ndlog::CmpOp;
using ndlog::Expr;
using ndlog::Rule;

bool unify_atom(const ndlog::Atom& atom, const Row& row, Env& env) {
  if (atom.args.size() != row.size()) return false;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Expr& arg = *atom.args[i];
    if (arg.is_const()) {
      if (!(arg.cval() == row[i])) return false;
    } else if (arg.is_var()) {
      auto [it, inserted] = env.try_emplace(arg.var_name(), row[i]);
      if (!inserted && !(it->second == row[i])) return false;
    } else {
      return false;
    }
  }
  return true;
}

// Variables that influence selections, assignments or the head of a rule;
// join results are deduplicated on these.
std::vector<std::string> relevant_vars(const Rule& rule) {
  std::vector<std::string> vars;
  for (const auto& s : rule.sels) {
    s.lhs->collect_vars(vars);
    s.rhs->collect_vars(vars);
  }
  for (const auto& a : rule.assigns) a.expr->collect_vars(vars);
  for (const auto& arg : rule.head.args) arg->collect_vars(vars);
  return vars;
}

std::string env_signature(const Env& env, const std::vector<std::string>& vars) {
  std::string sig;
  for (const auto& v : vars) {
    auto it = env.find(v);
    sig += v + "=" + (it == env.end() ? "?" : it->second.to_string()) + ";";
  }
  return sig;
}

// The selection side that is a plain constant, if exactly one side is.
// Returns 0 (lhs), 1 (rhs) or -1.
int const_side(const ndlog::Selection& sel) {
  const bool l = sel.lhs->is_const();
  const bool r = sel.rhs->is_const();
  if (l == r) return -1;
  return l ? 0 : 1;
}

CmpOp oriented_op(const ndlog::Selection& sel, int cside) {
  // Normalise to  <value-side>  op  <const-side>.
  if (cside == 1) return sel.op;
  switch (sel.op) {
    case CmpOp::Lt: return CmpOp::Gt;
    case CmpOp::Gt: return CmpOp::Lt;
    case CmpOp::Le: return CmpOp::Ge;
    case CmpOp::Ge: return CmpOp::Le;
    default: return sel.op;
  }
}

void push_unique(std::vector<Value>& vals, const Value& v, size_t cap) {
  if (vals.size() >= cap) return;
  for (const auto& x : vals)
    if (x == v) return;
  vals.push_back(v);
}

// The constant v + d, or nullopt when it leaves int64 (v comes from
// history, i.e. from traffic, and may sit at either limit).
std::optional<Value> offset(int64_t v, int64_t d) {
  int64_t r;
  if (__builtin_add_overflow(v, d, &r)) return std::nullopt;
  return Value(r);
}

}  // namespace

ForestExplorer::ForestExplorer(const eval::Engine& engine,
                               RepairSpaceConfig config, const CostModel& costs)
    : engine_(engine), cfg_(std::move(config)), costs_(costs) {}

std::vector<RepairCandidate> ForestExplorer::explore(const Symptom& symptom,
                                                     PhaseClock* phases,
                                                     ExploreStats* stats) {
  static const obs::TracedPhase kPhaseExplore("repair.explore");
  // Recursion into missing body tuples, candidates returned, and trees
  // popped before the search gives up.
  constexpr size_t kMaxDepth = 3;
  constexpr size_t kMaxCandidates = 32;
  constexpr size_t kMaxExpansions = 50'000;
  const obs::Scope scope(kPhaseExplore);
  phases_ = phases;
  stats_ = stats;

  // Min-priority queue over (cost, pending-goal count): the paper pops the
  // cheapest tree, breaking ties toward fewer unexpanded vertexes.
  auto cheaper = [](const TreeState& a, const TreeState& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.pending.size() > b.pending.size();
  };
  std::priority_queue<TreeState, std::vector<TreeState>, decltype(cheaper)>
      queue(cheaper);

  TreeState init;
  init.pending.push_back(Goal{symptom.pattern,
                              symptom.polarity == Symptom::Polarity::Missing,
                              kMaxDepth});
  queue.push(std::move(init));

  std::vector<RepairCandidate> out;
  std::set<std::string> seen;
  size_t expansions = 0;
  // Validates completed trees as deltas over the engine's program; built
  // (one full validation) when the first program-touching tree completes.
  std::optional<CandidateChecker> checker;

  while (!queue.empty() && expansions < kMaxExpansions &&
         out.size() < kMaxCandidates) {
    TreeState st = queue.top();
    queue.pop();
    if (st.cost > cfg_.max_cost) break;  // everything else is costlier

    if (st.pending.empty()) {
      if (st.changes.empty()) continue;
      RepairCandidate cand;
      bool valid = false;
      {
        const obs::Scope patching(kPhasePatch, phases_);
        cand.changes = st.changes;
        cand.cost = st.cost;
        cand.description = cand.describe(engine_.program());
        valid = seen.insert(cand.description).second;
        if (valid) {
          // Manual-insert-only candidates have no program changes to
          // verify.
          bool touches_program = false;
          for (const auto& c : cand.changes) {
            if (c.kind != ChangeKind::InsertBaseTuple &&
                c.kind != ChangeKind::DeleteBaseTuple) {
              touches_program = true;
            }
          }
          if (touches_program) {
            if (!checker) checker.emplace(engine_.program());
            valid = checker->valid(cand);
          }
        }
      }
      if (valid) {
        if (stats_ != nullptr) ++stats_->trees_completed;
        out.push_back(std::move(cand));
      }
      continue;
    }

    ++expansions;
    if (stats_ != nullptr) ++stats_->goals_expanded;
    std::vector<TreeState> children;
    expand(st, children);
    for (TreeState& child : children) {
      child.cost += costs_.expansion_epsilon;
      if (child.cost <= cfg_.max_cost) queue.push(std::move(child));
      if (stats_ != nullptr) ++stats_->trees_forked;
    }
  }

  std::sort(out.begin(), out.end(),
            [](const RepairCandidate& a, const RepairCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.description < b.description;
            });
  return out;
}

void ForestExplorer::expand(const TreeState& st, std::vector<TreeState>& out) {
  Goal goal = st.pending.front();
  TreeState base = st;
  base.pending.erase(base.pending.begin());
  if (goal.make_appear) {
    expand_appear(base, goal, out);
  } else {
    expand_disappear(base, goal, out);
  }
}

// ---------------------------------------------------------------------------
// Negative symptoms: make a matching tuple appear (Section 4.1).
// ---------------------------------------------------------------------------

void ForestExplorer::expand_appear(const TreeState& st, const Goal& goal,
                                   std::vector<TreeState>& out) {
  // Option 1: manual base-tuple injection.
  for (Change& c : manual_insert_options(goal)) {
    TreeState child = st;
    child.cost += costs_.cost(c, engine_.program());
    child.changes.push_back(std::move(c));
    out.push_back(std::move(child));
  }

  // Option 2: make some rule with a matching head fire.
  bool any_rule = false;
  for (const Rule& rule : engine_.program().rules) {
    if (rule.head.table != goal.pattern.table) continue;
    any_rule = true;

    for (JoinResult& jr : enumerate_joins(rule)) {
      if (!jr.unbound_atoms.empty()) {
        // Some body atom has no historical match: fork a tree that defers
        // to subgoals (the tree's constraint pool is approximated by
        // propagating the head pattern through shared variables).
        if (goal.depth == 0) continue;
        TreeState child = st;
        bool ok = true;
        for (size_t atom_idx : jr.unbound_atoms) {
          const ndlog::Atom& atom = rule.body[atom_idx];
          prov::TuplePattern sub;
          sub.table = atom.table;
          for (size_t i = 0; i < atom.args.size(); ++i) {
            const Expr& arg = *atom.args[i];
            if (arg.is_const()) {
              sub.fields.push_back({i, CmpOp::Eq, arg.cval()});
            } else if (arg.is_var()) {
              // Propagate the goal pattern through head variables.
              for (size_t h = 0; h < rule.head.args.size(); ++h) {
                if (!rule.head.args[h]->is_var() ||
                    rule.head.args[h]->var_name() != arg.var_name()) {
                  continue;
                }
                for (const auto& f : goal.pattern.fields) {
                  if (f.col == h) sub.fields.push_back({i, f.op, f.value});
                }
              }
              // ...and through variables already bound by sibling atoms.
              auto it = jr.env.find(arg.var_name());
              if (it != jr.env.end()) {
                sub.fields.push_back({i, CmpOp::Eq, it->second});
              }
            }
          }
          if (engine_.catalog().find(sub.table) == nullptr) {
            ok = false;
            break;
          }
          child.pending.push_back(Goal{std::move(sub), true, goal.depth - 1});
        }
        if (ok) out.push_back(std::move(child));
        continue;
      }

      // Fully bound join: evaluate assignments, then check the head
      // against the pattern and find the failing selections.
      Env env = jr.env;
      bool env_ok = true;
      for (const auto& asg : rule.assigns) {
        Value v;
        if (!eval_expr(*asg.expr, env, v)) {
          env_ok = false;
          break;
        }
        env[asg.var] = std::move(v);
      }
      if (!env_ok) continue;

      // Head mismatches that Eq-constraints could fix via assignments.
      std::vector<std::pair<std::string, Value>> needed_fixes;
      bool feasible = true;
      for (const auto& fc : goal.pattern.fields) {
        if (fc.col >= rule.head.args.size()) {
          feasible = false;
          break;
        }
        Value hv;
        if (!eval_expr(*rule.head.args[fc.col], env, hv)) {
          feasible = false;
          break;
        }
        if (ndlog::cmp_eval(fc.op, hv, fc.value)) continue;
        if (fc.op == CmpOp::Eq && rule.head.args[fc.col]->is_var()) {
          needed_fixes.emplace_back(rule.head.args[fc.col]->var_name(),
                                    fc.value);
        } else {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;

      std::vector<size_t> failing;
      for (size_t i = 0; i < rule.sels.size(); ++i) {
        Value a, b;
        if (!eval_expr(*rule.sels[i].lhs, env, a) ||
            !eval_expr(*rule.sels[i].rhs, env, b)) {
          failing.clear();
          feasible = false;
          break;
        }
        if (!ndlog::cmp_eval(rule.sels[i].op, a, b)) failing.push_back(i);
      }
      if (!feasible) continue;
      if (failing.empty() && needed_fixes.empty()) continue;  // fires already
      if (failing.size() > 2) continue;  // cost would exceed any cut-off

      // One repair option per failing selection and per needed head fix;
      // the tree forks over the cross product (Section 3.3).
      std::vector<std::vector<Change>> option_groups;
      bool possible = true;
      for (size_t i : failing) {
        auto opts = selection_fix_options(rule, i, env);
        if (opts.empty()) {
          possible = false;
          break;
        }
        option_groups.push_back(std::move(opts));
      }
      if (possible) {
        for (const auto& [var, needed] : needed_fixes) {
          auto opts = head_fix_options(rule, var, needed, env);
          if (opts.empty()) {
            possible = false;
            break;
          }
          option_groups.push_back(std::move(opts));
        }
      }
      if (!possible || option_groups.empty()) continue;

      // Iterative cartesian product, capped to keep forks bounded.
      std::vector<std::vector<Change>> combos{{}};
      for (const auto& group : option_groups) {
        std::vector<std::vector<Change>> next;
        for (const auto& prefix : combos) {
          for (const Change& opt : group) {
            if (next.size() >= 64) break;
            auto combo = prefix;
            combo.push_back(opt);
            next.push_back(std::move(combo));
          }
        }
        combos = std::move(next);
      }
      for (auto& combo : combos) {
        TreeState child = st;
        for (Change& c : combo) {
          child.cost += costs_.cost(c, engine_.program());
          child.changes.push_back(std::move(c));
        }
        out.push_back(std::move(child));
      }
    }
  }

  // Option 3: no rule derives this table at all -- synthesize one by
  // retargeting an existing rule's head (the paper's Q4 repairs).
  if (!any_rule) {
    for (Change& c : retarget_options(goal)) {
      TreeState child = st;
      child.cost += costs_.cost(c, engine_.program());
      child.changes.push_back(std::move(c));
      out.push_back(std::move(child));
    }
  }
}

// ---------------------------------------------------------------------------
// Positive symptoms: make matching tuples disappear (Section 4.2).
// ---------------------------------------------------------------------------

void ForestExplorer::expand_disappear(const TreeState& st, const Goal& goal,
                                      std::vector<TreeState>& out) {
  const eval::EventLog& log = engine_.log();
  // Indexed history probe filtered to tuples still live somewhere. Live
  // tuples are a subset of recorded history (every live tuple had an
  // Appear event), so this enumerates the same matches as the old
  // all_tuples scan — but in deterministic first-appearance order, and as
  // an index hit on the pattern's bound columns. The walk stays on
  // interned handles; Tuples materialize only inside emitted Changes.
  std::vector<eval::TupleRef> matching;
  {
    const obs::Scope lookup(kPhaseHistory, phases_);
    const size_t scanned =
        engine_.history().probe(goal.pattern, [&](eval::TupleRef ref) {
          const Row& row = log.row_of(ref);
          if (!row.empty() &&
              engine_.exists(row[0], log.table_name(ref), row)) {
            matching.push_back(ref);
          }
          return matching.size() < 4;  // each match forks its own subtree
        });
    if (stats_ != nullptr) stats_->history_tuples_scanned += scanned;
  }

  for (const eval::TupleRef target : matching) {
    const auto derivs = log.derivations_of(target);
    if (derivs.empty()) {
      // Base tuple: delete it.
      Change c;
      c.kind = ChangeKind::DeleteBaseTuple;
      c.tuple = log.materialize(target);
      TreeState child = st;
      child.cost += costs_.cost(c, engine_.program());
      child.changes.push_back(std::move(c));
      out.push_back(std::move(child));
      continue;
    }

    // Every live derivation must be killed; collect per-derivation options
    // and fork over their cross product.
    std::vector<std::vector<Change>> per_deriv;
    for (size_t d : derivs) {
      const eval::DerivRecord& rec = log.derivations()[d];
      const std::string& rule_name = log.rule_name(rec.rule);
      const Rule* rule = engine_.program().find_rule(rule_name);
      if (rule == nullptr) continue;
      std::vector<Change> opts;

      // Reconstruct the variable environment from the recorded body tuples
      // (symbolic re-execution of the derivation, Section 4.2). The engine
      // guarantees body[i] matches rule->body[i] regardless of which atom
      // triggered the firing.
      const std::span<const eval::TupleRef> body = log.body_of(rec);
      Env env;
      bool env_ok = body.size() == rule->body.size();
      if (env_ok) {
        for (size_t i = 0; i < body.size(); ++i) {
          if (body[i] == eval::kNoTupleRef ||
              log.table_name(body[i]) != rule->body[i].table ||
              !unify_atom(rule->body[i], log.row_of(body[i]), env)) {
            env_ok = false;
            break;
          }
        }
      }
      if (env_ok) {
        for (const auto& asg : rule->assigns) {
          Value v;
          if (!eval_expr(*asg.expr, env, v)) {
            env_ok = false;
            break;
          }
          env[asg.var] = std::move(v);
        }
      }
      if (env_ok) {
        for (size_t i = 0; i < rule->sels.size(); ++i) {
          for (Change& c : selection_break_options(*rule, i, env)) {
            opts.push_back(std::move(c));
          }
        }
      }
      // Deleting a base body tuple starves the derivation.
      for (const eval::TupleRef b : body) {
        if (b == eval::kNoTupleRef) continue;
        if (!log.has_derivation_of(b) &&
            !engine_.catalog().is_event(log.table_of(b))) {
          Change c;
          c.kind = ChangeKind::DeleteBaseTuple;
          c.tuple = log.materialize(b);
          opts.push_back(std::move(c));
        }
      }
      // Last resort: delete the whole rule.
      {
        Change c;
        c.kind = ChangeKind::DeleteRule;
        c.rule = rule_name;
        opts.push_back(std::move(c));
      }
      if (!opts.empty()) per_deriv.push_back(std::move(opts));
    }
    if (per_deriv.empty()) continue;

    std::vector<std::vector<Change>> combos{{}};
    for (const auto& group : per_deriv) {
      std::vector<std::vector<Change>> next;
      for (const auto& prefix : combos) {
        for (const Change& opt : group) {
          if (next.size() >= 64) break;
          // The same change may kill several derivations; dedupe in-place.
          bool dup = false;
          for (const Change& prev : prefix) {
            if (prev.kind == opt.kind && prev.rule == opt.rule &&
                prev.index == opt.index && prev.side == opt.side &&
                prev.new_value == opt.new_value && prev.tuple == opt.tuple) {
              dup = true;
              break;
            }
          }
          auto combo = prefix;
          if (!dup) combo.push_back(opt);
          next.push_back(std::move(combo));
        }
      }
      combos = std::move(next);
    }
    for (auto& combo : combos) {
      if (combo.empty()) continue;
      TreeState child = st;
      for (Change& c : combo) {
        child.cost += costs_.cost(c, engine_.program());
        child.changes.push_back(std::move(c));
      }
      out.push_back(std::move(child));
    }
  }
}

// ---------------------------------------------------------------------------
// Join enumeration over historical data ("history lookups").
// ---------------------------------------------------------------------------

std::vector<ForestExplorer::JoinResult> ForestExplorer::enumerate_joins(
    const Rule& rule) {
  // Join combinations returned; partial frames are capped at 4x this.
  constexpr size_t kMaxJoinCombos = 96;
  const obs::Scope lookup(kPhaseHistory, phases_);
  std::vector<JoinResult> results;
  std::set<std::string> seen;
  const std::vector<std::string> rel_vars = relevant_vars(rule);

  struct Frame {
    Env env;
    std::vector<eval::TupleRef> bound;
    std::vector<size_t> unbound;
  };
  std::vector<Frame> frontier{Frame{}};

  for (size_t atom_idx = 0; atom_idx < rule.body.size(); ++atom_idx) {
    const ndlog::Atom& atom = rule.body[atom_idx];
    std::vector<Frame> next;
    for (Frame& f : frontier) {
      bool bound_any = false;
      // Pattern from the atom's constants plus variables already bound by
      // sibling atoms: every bound column becomes an Eq constraint, so the
      // probe is a history-index hit whenever anything is bound; only the
      // leading fully-unbound atom still walks its table's history. The
      // candidates a probe skips are exactly those unify_atom would
      // reject, and buckets keep first-appearance order, so the frontier
      // evolves identically to the old linear scan.
      prov::TuplePattern pat;
      pat.table = atom.table;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Expr& arg = *atom.args[i];
        if (arg.is_const()) {
          pat.fields.push_back({i, CmpOp::Eq, arg.cval()});
        } else if (arg.is_var()) {
          auto it = f.env.find(arg.var_name());
          if (it != f.env.end()) {
            pat.fields.push_back({i, CmpOp::Eq, it->second});
          }
        }
      }
      const size_t scanned =
          engine_.history().probe(pat, [&](eval::TupleRef ref) {
            Env env = f.env;
            if (!unify_atom(atom, engine_.history().row_of(ref), env)) {
              return true;
            }
            bound_any = true;
            Frame nf;
            nf.env = std::move(env);
            nf.bound = f.bound;
            nf.bound.push_back(ref);
            nf.unbound = f.unbound;
            next.push_back(std::move(nf));
            return next.size() < kMaxJoinCombos * 4;
          });
      if (stats_ != nullptr) stats_->history_tuples_scanned += scanned;
      if (!bound_any) {
        Frame nf = f;
        nf.unbound.push_back(atom_idx);
        next.push_back(std::move(nf));
      }
      if (next.size() >= kMaxJoinCombos * 4) break;
    }
    frontier = std::move(next);
  }

  for (Frame& f : frontier) {
    std::string sig = env_signature(f.env, rel_vars);
    for (size_t u : f.unbound) sig += "!" + std::to_string(u);
    if (!seen.insert(sig).second) continue;
    JoinResult jr;
    jr.env = std::move(f.env);
    jr.bound = std::move(f.bound);
    jr.unbound_atoms = std::move(f.unbound);
    results.push_back(std::move(jr));
    if (results.size() >= kMaxJoinCombos) break;
  }
  return results;
}

// ---------------------------------------------------------------------------
// Per-site repair options.
// ---------------------------------------------------------------------------

std::vector<Change> ForestExplorer::selection_fix_options(const Rule& rule,
                                                          size_t sel_idx,
                                                          const Env& env) {
  std::vector<Change> out;
  const ndlog::Selection& sel = rule.sels[sel_idx];
  Value lv, rv;
  if (!eval_expr(*sel.lhs, env, lv) || !eval_expr(*sel.rhs, env, rv)) return out;

  const int cside = const_side(sel);

  // (a) Replace the constant operand so the selection holds for this join.
  if (cside >= 0) {
    const Value& x = cside == 0 ? rv : lv;  // the value-side operand
    const Value& c0 = cside == 0 ? sel.lhs->cval() : sel.rhs->cval();
    const CmpOp op = oriented_op(sel, cside);  // x op K must become true
    std::vector<Value> candidates;
    if (x.is_int()) {
      {
        const obs::Scope solving(kPhaseSolve, phases_);
        // Nearest satisfying constant, via the mini solver
        // (SATASSIGNMENT).
        solver::ConstraintPool pool;
        pool.add(solver::Term::constant(x), op, solver::Term::variable("K"));
        if (auto a = solver::MiniSolver::solve(
                pool, stats_ != nullptr ? &stats_->solver : nullptr)) {
          push_unique(candidates, a->at("K"), cfg_.max_const_variants);
        }
      }
      // Direct minimal-edit value.
      const int64_t xi = x.as_int();
      std::optional<Value> direct;
      switch (op) {
        case CmpOp::Eq: direct = Value(xi); break;
        case CmpOp::Ne: direct = offset(xi, 1); break;
        case CmpOp::Lt: direct = offset(xi, 1); break;
        case CmpOp::Le: direct = Value(xi); break;
        case CmpOp::Gt: direct = offset(xi, -1); break;
        case CmpOp::Ge: direct = Value(xi); break;
      }
      if (direct) push_unique(candidates, *direct, cfg_.max_const_variants);
      // Domain variants: historical values of the value-side variable
      // suggest looser constants (the paper's Sip<16 / Sip<99 flavours).
      if (sel.lhs->is_var() || sel.rhs->is_var()) {
        const ndlog::ExprPtr& vside = cside == 0 ? sel.rhs : sel.lhs;
        if (vside->is_var()) {
          for (const Value& v : domain_of_var(rule, vside->var_name())) {
            if (!v.is_int()) continue;
            std::optional<Value> cand;
            switch (op) {
              case CmpOp::Lt: cand = offset(v.as_int(), 1); break;
              case CmpOp::Le: cand = Value(v.as_int()); break;
              case CmpOp::Gt: cand = offset(v.as_int(), -1); break;
              case CmpOp::Ge: cand = Value(v.as_int()); break;
              default: continue;
            }
            if (cand && ndlog::cmp_eval(op, x, *cand)) {
              push_unique(candidates, *cand, cfg_.max_const_variants);
            }
          }
        }
      }
    } else {
      // String constant: equality fix only.
      if (op == CmpOp::Eq) push_unique(candidates, x, 1);
    }
    for (const Value& cand : candidates) {
      if (cand == c0) continue;
      Change c;
      c.kind = ChangeKind::ChangeSelConst;
      c.rule = rule.name;
      c.index = sel_idx;
      c.side = static_cast<size_t>(cside);
      c.new_value = cand;
      out.push_back(std::move(c));
    }
  }

  // (b) Swap the comparison operator.
  for (CmpOp op : ndlog::all_cmp_ops()) {
    if (op == sel.op) continue;
    if (!ndlog::cmp_eval(op, lv, rv)) continue;
    Change c;
    c.kind = ChangeKind::ChangeSelOp;
    c.rule = rule.name;
    c.index = sel_idx;
    c.new_op = op;
    out.push_back(std::move(c));
  }

  // (c) Delete the selection predicate.
  {
    Change c;
    c.kind = ChangeKind::DeleteSel;
    c.rule = rule.name;
    c.index = sel_idx;
    out.push_back(std::move(c));
  }

  // (d) Substitute the variable operand with another in-scope variable.
  // Variants that do not satisfy this join are generated too (the paper's
  // Q2 candidates J-L); backtesting weeds them out.
  if (cside >= 0) {
    const ndlog::ExprPtr& vside = cside == 0 ? sel.rhs : sel.lhs;
    if (vside->is_var()) {
      size_t emitted = 0;
      for (const auto& [var, val] : env) {
        if (var == vside->var_name()) continue;
        if (emitted >= cfg_.max_var_variants) break;
        Change c;
        c.kind = ChangeKind::ChangeSelVar;
        c.rule = rule.name;
        c.index = sel_idx;
        c.side = cside == 0 ? 1 : 0;
        c.new_value = Value::str(var);
        out.push_back(std::move(c));
        ++emitted;
      }
    }
  }
  return out;
}

std::vector<Change> ForestExplorer::selection_break_options(const Rule& rule,
                                                            size_t sel_idx,
                                                            const Env& env) {
  std::vector<Change> out;
  const ndlog::Selection& sel = rule.sels[sel_idx];
  Value lv, rv;
  if (!eval_expr(*sel.lhs, env, lv) || !eval_expr(*sel.rhs, env, rv)) return out;

  const int cside = const_side(sel);
  if (cside >= 0) {
    const Value& x = cside == 0 ? rv : lv;
    const Value& c0 = cside == 0 ? sel.lhs->cval() : sel.rhs->cval();
    const CmpOp op = oriented_op(sel, cside);
    if (x.is_int()) {
      const obs::Scope solving(kPhaseSolve, phases_);
      // UNSATASSIGNMENT: violate (x op K) while keeping nothing else.
      solver::ConstraintPool keep, negate;
      negate.add(solver::Term::constant(x), op, solver::Term::variable("K"));
      if (auto a = solver::MiniSolver::solve_negation(
              keep, negate, stats_ != nullptr ? &stats_->solver : nullptr)) {
        const Value cand = a->at("K");
        if (!(cand == c0)) {
          Change c;
          c.kind = ChangeKind::ChangeSelConst;
          c.rule = rule.name;
          c.index = sel_idx;
          c.side = static_cast<size_t>(cside);
          c.new_value = cand;
          out.push_back(std::move(c));
        }
      }
    }
  }
  for (CmpOp op : ndlog::all_cmp_ops()) {
    if (op == sel.op) continue;
    if (ndlog::cmp_eval(op, lv, rv)) continue;  // must now be false
    Change c;
    c.kind = ChangeKind::ChangeSelOp;
    c.rule = rule.name;
    c.index = sel_idx;
    c.new_op = op;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Change> ForestExplorer::head_fix_options(const Rule& rule,
                                                     const std::string& head_var,
                                                     const Value& needed,
                                                     const Env& env) {
  std::vector<Change> out;
  // Plausibility order for variable substitutions: variables whose current
  // value equals the needed one first, then variables whose name resembles
  // the assignment target (programmers mistype similar names; Q5's
  // Sip2 := * should propose Sip before Dip), then the rest.
  auto ordered_vars = [&](const std::string& target,
                          const std::string& skip) {
    auto lcp = [](const std::string& x, const std::string& y) {
      size_t i = 0;
      while (i < x.size() && i < y.size() && x[i] == y[i]) ++i;
      return i;
    };
    std::vector<std::pair<std::string, Value>> ordered(env.begin(), env.end());
    std::sort(ordered.begin(), ordered.end());
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const auto& p1, const auto& p2) {
                       return lcp(p1.first, target) > lcp(p2.first, target);
                     });
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const auto& p1, const auto& p2) {
                       return (p1.second == needed) > (p2.second == needed);
                     });
    std::vector<std::string> names;
    for (const auto& [var, val] : ordered) {
      if (var != skip) names.push_back(var);
    }
    return names;
  };
  for (size_t a = 0; a < rule.assigns.size(); ++a) {
    if (rule.assigns[a].var != head_var) continue;
    const ndlog::ExprPtr& expr = rule.assigns[a].expr;
    if (expr->is_const()) {
      // Replace the assigned constant (covers the wildcard `*` case).
      if (!(expr->cval() == needed)) {
        Change c;
        c.kind = ChangeKind::ChangeAssignConst;
        c.rule = rule.name;
        c.index = a;
        c.new_value = needed;
        out.push_back(std::move(c));
      }
      // ...or assign from a variable instead. The most plausible variant
      // (matching value / similar name, Q5's Sip2 := Sip) comes first;
      // mismatching variants are generated too and die in backtesting.
      size_t emitted = 0;
      for (const std::string& var : ordered_vars(head_var, "")) {
        if (emitted >= cfg_.max_var_variants) break;
        Change c;
        c.kind = ChangeKind::ChangeAssignVar;
        c.rule = rule.name;
        c.index = a;
        c.new_value = Value::str(var);
        out.push_back(std::move(c));
        ++emitted;
      }
    } else if (expr->is_var()) {
      // Assigned from the wrong variable: swap to alternatives.
      size_t emitted = 0;
      for (const std::string& var : ordered_vars(head_var, expr->var_name())) {
        if (emitted >= cfg_.max_var_variants) break;
        Change c;
        c.kind = ChangeKind::ChangeAssignVar;
        c.rule = rule.name;
        c.index = a;
        c.new_value = Value::str(var);
        out.push_back(std::move(c));
        ++emitted;
      }
    }
    return out;
  }
  return out;  // head var comes straight from the body: no assignment to fix
}

std::vector<Change> ForestExplorer::manual_insert_options(const Goal& goal) {
  std::vector<Change> out;
  bool insertable = false;
  for (const auto& t : cfg_.insertable_tables) {
    if (t == goal.pattern.table) insertable = true;
  }
  if (!insertable) return out;
  const ndlog::TableDecl* decl = engine_.catalog().find(goal.pattern.table);
  if (decl == nullptr) return out;

  // Synthesize a concrete row: constrained columns via the constraint
  // pool + mini solver (SATASSIGNMENT in Figure 5), unconstrained columns
  // from a historical row when available.
  std::optional<solver::Assignment> assignment;
  {
    const obs::Scope solving(kPhaseSolve, phases_);
    solver::ConstraintPool pool;
    for (const auto& fc : goal.pattern.fields) {
      pool.add(solver::Term::variable("c" + std::to_string(fc.col)), fc.op,
               solver::Term::constant(fc.value));
    }
    assignment = solver::MiniSolver::solve(
        pool, stats_ != nullptr ? &stats_->solver : nullptr);
  }
  if (!assignment) return out;

  Row row(decl->arity, Value(0));
  {
    const obs::Scope lookup(kPhaseHistory, phases_);
    const auto& hist = engine_.history().rows(goal.pattern.table);
    if (!hist.empty() &&
        engine_.history().row_of(hist.front()).size() == decl->arity) {
      row = engine_.history().row_of(hist.front());
    }
  }
  for (size_t i = 0; i < decl->arity; ++i) {
    auto it = assignment->find("c" + std::to_string(i));
    if (it != assignment->end()) row[i] = it->second;
  }
  Change c;
  c.kind = ChangeKind::InsertBaseTuple;
  c.tuple = Tuple{goal.pattern.table, std::move(row)};
  out.push_back(std::move(c));
  return out;
}

std::vector<Change> ForestExplorer::retarget_options(const Goal& goal) {
  std::vector<Change> out;
  const ndlog::TableDecl* decl = engine_.catalog().find(goal.pattern.table);
  if (decl == nullptr) return out;

  for (const Rule& rule : engine_.program().rules) {
    if (rule.head.args.size() != decl->arity) continue;
    if (rule.head.table == goal.pattern.table) continue;

    // Candidate head-argument permutations: identity plus adjacent swaps
    // beyond the location column (the paper's Sip/Dip and Spt/Dpt swaps).
    std::vector<std::vector<size_t>> perms;
    std::vector<size_t> identity(decl->arity);
    for (size_t i = 0; i < decl->arity; ++i) identity[i] = i;
    perms.push_back(identity);
    for (size_t i = 1; i + 1 < decl->arity && perms.size() < cfg_.max_head_perms;
         ++i) {
      auto p = identity;
      std::swap(p[i], p[i + 1]);
      perms.push_back(std::move(p));
    }

    for (const auto& perm : perms) {
      Change copy;
      copy.kind = ChangeKind::CopyRuleRetarget;
      copy.rule = rule.name;
      copy.new_head_table = goal.pattern.table;
      copy.head_perm = perm;
      copy.copy_name = rule.name + "_" + goal.pattern.table;
      out.push_back(copy);

      Change retarget;
      retarget.kind = ChangeKind::ChangeHeadTable;
      retarget.rule = rule.name;
      retarget.new_head_table = goal.pattern.table;
      retarget.head_perm = perm;
      out.push_back(retarget);
    }
  }
  return out;
}

std::vector<Value> ForestExplorer::domain_of_var(const Rule& rule,
                                                 const std::string& var) {
  std::vector<Value> out;
  {
    const obs::Scope lookup(kPhaseHistory, phases_);
    for (const auto& atom : rule.body) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (!atom.args[i]->is_var() || atom.args[i]->var_name() != var) {
          continue;
        }
        // Domain extraction has no bound columns; the probe is the
        // ordered fallback scan over this table's recorded history.
        prov::TuplePattern any;
        any.table = atom.table;
        const size_t scanned =
            engine_.history().probe(any, [&](eval::TupleRef ref) {
              const Row& row = engine_.history().row_of(ref);
              if (i < row.size()) push_unique(out, row[i], 64);
              return true;
            });
        if (stats_ != nullptr) stats_->history_tuples_scanned += scanned;
      }
    }
  }
  // Descending: the loosest domain-suggested constants first (the paper's
  // Sip<2009 / Sip<99 / Sip<16 flavours), ahead of near-misses.
  std::sort(out.begin(), out.end(),
            [](const Value& a, const Value& b) { return b < a; });
  return out;
}

}  // namespace mp::repair
