#include "solver/mini_solver.h"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

namespace mp::solver {

namespace {

// The interval every class domain starts from. The solver searches the
// preferred window first and all of int64 only when the pool has no
// solution there (MiniSolver::solve), so the window is a preference for
// small values, not a constraint.
struct Window {
  int64_t lo;
  int64_t hi;
};
constexpr Window kPreferred{-1'000'000'000, 1'000'000'000};
constexpr Window kFull{std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max()};

struct ClassDomain {
  int64_t lo = 0;
  int64_t hi = 0;
  std::set<int64_t> excluded;
  std::optional<std::string> pinned_str;      // class must equal this string
  std::set<std::string> excluded_str;
  bool must_be_int = false;                   // participated in an ordering
};

class UnionFind {
 public:
  size_t find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[a] = b;
  }
  size_t add() {
    parent_.push_back(parent_.size());
    return parent_.size() - 1;
  }

 private:
  std::vector<size_t> parent_;
};

struct Problem {
  Window window;
  std::vector<std::string> vars;
  std::unordered_map<std::string, size_t> var_idx;
  UnionFind uf;
  // Ordering / inequality constraints between classes, kept as (a, op, b).
  struct ClassCmp {
    size_t a;
    ndlog::CmpOp op;
    size_t b;
  };
  std::vector<ClassCmp> cmps;
  std::unordered_map<size_t, ClassDomain> domains;

  size_t var(const std::string& name) {
    auto it = var_idx.find(name);
    if (it != var_idx.end()) return it->second;
    const size_t idx = uf.add();
    var_idx.emplace(name, idx);
    vars.push_back(name);
    return idx;
  }
  ClassDomain& dom(size_t cls) {
    const auto [it, fresh] = domains.try_emplace(cls);
    if (fresh) {
      it->second.lo = window.lo;
      it->second.hi = window.hi;
    }
    return it->second;
  }
};

// v + d, or nullopt when that leaves int64: a bound that cannot be
// represented makes the problem infeasible.
std::optional<int64_t> offset(int64_t v, int64_t d) {
  int64_t r;
  if (__builtin_add_overflow(v, d, &r)) return std::nullopt;
  return r;
}

// Returns false on contradiction.
bool apply_const_constraint(Problem& p, size_t cls, ndlog::CmpOp op,
                            const Value& v) {
  ClassDomain& d = p.dom(cls);
  if (v.is_str()) {
    switch (op) {
      case ndlog::CmpOp::Eq:
        if (d.pinned_str && *d.pinned_str != v.as_str()) return false;
        if (d.excluded_str.count(v.as_str())) return false;
        d.pinned_str = v.as_str();
        return true;
      case ndlog::CmpOp::Ne:
        if (d.pinned_str && *d.pinned_str == v.as_str()) return false;
        d.excluded_str.insert(v.as_str());
        return true;
      default:
        return false;  // no ordering over strings
    }
  }
  const int64_t c = v.as_int();
  switch (op) {
    case ndlog::CmpOp::Eq:
      d.lo = std::max(d.lo, c);
      d.hi = std::min(d.hi, c);
      break;
    case ndlog::CmpOp::Ne:
      d.excluded.insert(c);
      break;
    case ndlog::CmpOp::Lt: {
      const std::optional<int64_t> below = offset(c, -1);
      if (!below) return false;
      d.hi = std::min(d.hi, *below);
      break;
    }
    case ndlog::CmpOp::Le:
      d.hi = std::min(d.hi, c);
      break;
    case ndlog::CmpOp::Gt: {
      const std::optional<int64_t> above = offset(c, 1);
      if (!above) return false;
      d.lo = std::max(d.lo, *above);
      break;
    }
    case ndlog::CmpOp::Ge:
      d.lo = std::max(d.lo, c);
      break;
  }
  if (op != ndlog::CmpOp::Eq && op != ndlog::CmpOp::Ne) d.must_be_int = true;
  if (d.pinned_str && op != ndlog::CmpOp::Ne) return false;
  return d.lo <= d.hi || d.pinned_str.has_value();
}

std::optional<Problem> build(const ConstraintPool& pool, Window window) {
  Problem p;
  p.window = window;
  // Pass 1: create vars and merge equalities.
  for (const auto& c : pool.constraints()) {
    if (c.lhs.is_var) p.var(c.lhs.var);
    if (c.rhs.is_var) p.var(c.rhs.var);
    if (c.op == ndlog::CmpOp::Eq && c.lhs.is_var && c.rhs.is_var) {
      p.uf.unite(p.var_idx[c.lhs.var], p.var_idx[c.rhs.var]);
    }
    if (!c.lhs.is_var && !c.rhs.is_var) {
      if (!ndlog::cmp_eval(c.op, c.lhs.val, c.rhs.val)) return std::nullopt;
    }
  }
  // Pass 2: domains and inter-class constraints.
  for (const auto& c : pool.constraints()) {
    if (c.lhs.is_var && c.rhs.is_var) {
      const size_t a = p.uf.find(p.var_idx[c.lhs.var]);
      const size_t b = p.uf.find(p.var_idx[c.rhs.var]);
      if (c.op == ndlog::CmpOp::Eq) continue;  // already merged
      if (a == b) {
        // x != x, x < x, x > x are contradictions; <=, >= are tautologies.
        if (c.op == ndlog::CmpOp::Ne || c.op == ndlog::CmpOp::Lt ||
            c.op == ndlog::CmpOp::Gt) {
          return std::nullopt;
        }
        continue;
      }
      p.cmps.push_back({a, c.op, b});
      if (c.op != ndlog::CmpOp::Ne) {
        p.dom(a).must_be_int = true;
        p.dom(b).must_be_int = true;
      }
    } else if (c.lhs.is_var) {
      const size_t a = p.uf.find(p.var_idx[c.lhs.var]);
      if (!apply_const_constraint(p, a, c.op, c.rhs.val)) return std::nullopt;
    } else if (c.rhs.is_var) {
      // const op var  ==  var flip(op) const
      ndlog::CmpOp flipped = c.op;
      switch (c.op) {
        case ndlog::CmpOp::Lt: flipped = ndlog::CmpOp::Gt; break;
        case ndlog::CmpOp::Gt: flipped = ndlog::CmpOp::Lt; break;
        case ndlog::CmpOp::Le: flipped = ndlog::CmpOp::Ge; break;
        case ndlog::CmpOp::Ge: flipped = ndlog::CmpOp::Le; break;
        default: break;
      }
      const size_t b = p.uf.find(p.var_idx[c.rhs.var]);
      if (!apply_const_constraint(p, b, flipped, c.lhs.val)) return std::nullopt;
    }
  }
  return p;
}

// Bound propagation over ordering constraints, to fixpoint (n^2 passes cap).
bool propagate(Problem& p) {
  const size_t passes = p.cmps.size() + 2;
  for (size_t i = 0; i < passes; ++i) {
    bool changed = false;
    for (const auto& cc : p.cmps) {
      ClassDomain& da = p.dom(cc.a);
      ClassDomain& db = p.dom(cc.b);
      // False when the new bound cannot be represented.
      auto tighten = [&changed](int64_t& slot, std::optional<int64_t> v,
                                bool is_lo) {
        if (!v) return false;
        if (is_lo ? *v > slot : *v < slot) {
          slot = *v;
          changed = true;
        }
        return true;
      };
      bool ok = true;
      switch (cc.op) {
        case ndlog::CmpOp::Lt:  // a < b
          ok = tighten(da.hi, offset(db.hi, -1), false) &&
               tighten(db.lo, offset(da.lo, 1), true);
          break;
        case ndlog::CmpOp::Le:
          tighten(da.hi, db.hi, false);
          tighten(db.lo, da.lo, true);
          break;
        case ndlog::CmpOp::Gt:  // a > b
          ok = tighten(da.lo, offset(db.lo, 1), true) &&
               tighten(db.hi, offset(da.hi, -1), false);
          break;
        case ndlog::CmpOp::Ge:
          tighten(da.lo, db.lo, true);
          tighten(db.hi, da.hi, false);
          break;
        case ndlog::CmpOp::Ne:
        case ndlog::CmpOp::Eq:
          break;
      }
      if (!ok) return false;
      if (da.lo > da.hi && !da.pinned_str) return false;
      if (db.lo > db.hi && !db.pinned_str) return false;
    }
    if (!changed) return true;
  }
  return true;
}

struct ClassAssign {
  bool is_str = false;
  std::string sval;
  int64_t ival = 0;
  Value value() const { return is_str ? Value(sval) : Value(ival); }
};

bool check_cmp(const Problem::ClassCmp& cc,
               const std::unordered_map<size_t, ClassAssign>& vals) {
  auto ai = vals.find(cc.a);
  auto bi = vals.find(cc.b);
  if (ai == vals.end() || bi == vals.end()) return true;  // not yet assigned
  return ndlog::cmp_eval(cc.op, ai->second.value(), bi->second.value());
}

bool assign_classes(Problem& p, const std::vector<size_t>& classes, size_t at,
                    std::unordered_map<size_t, ClassAssign>& vals,
                    SolveStats* stats) {
  if (at == classes.size()) return true;
  const size_t cls = classes[at];
  ClassDomain& d = p.dom(cls);

  std::vector<ClassAssign> candidates;
  if (d.pinned_str) {
    if (!d.must_be_int && !d.excluded_str.count(*d.pinned_str)) {
      ClassAssign a;
      a.is_str = true;
      a.sval = *d.pinned_str;
      candidates.push_back(a);
    }
  } else {
    // Prefer small-magnitude feasible integers (0 if unconstrained), then a
    // few from the top of the interval, when it is below the window's, so
    // a<b chains can resolve. Neither walk steps past the interval, so a
    // bound at an int64 limit is safe.
    int64_t v = std::clamp<int64_t>(0, d.lo, d.hi);
    for (int tries = 0; tries < 64; ++tries) {
      while (v < d.hi && d.excluded.count(v)) ++v;
      if (d.excluded.count(v)) break;
      ClassAssign a;
      a.ival = v;
      candidates.push_back(a);
      if (v == d.hi) break;
      ++v;
    }
    if (d.hi != d.lo && candidates.size() < 72 && d.hi < p.window.hi) {
      int64_t w = d.hi;
      for (int tries = 0; tries < 8; ++tries) {
        while (w > d.lo && d.excluded.count(w)) --w;
        if (d.excluded.count(w)) break;
        ClassAssign a;
        a.ival = w;
        bool dup = false;
        for (const auto& c : candidates) {
          if (!c.is_str && c.ival == w) { dup = true; break; }
        }
        if (!dup) candidates.push_back(a);
        if (w == d.lo) break;
        --w;
      }
    }
  }

  for (const auto& cand : candidates) {
    vals[cls] = cand;
    bool ok = true;
    for (const auto& cc : p.cmps) {
      if ((cc.a == cls || cc.b == cls) && !check_cmp(cc, vals)) {
        ok = false;
        break;
      }
    }
    if (ok && assign_classes(p, classes, at + 1, vals, stats)) return true;
    if (stats != nullptr) ++stats->backtracks;
    vals.erase(cls);
  }
  return false;
}

// solve() with every class domain starting at `window`.
std::optional<Assignment> solve_in(const ConstraintPool& pool, Window window,
                                   SolveStats* stats) {
  auto built = build(pool, window);
  if (!built) return std::nullopt;
  Problem& p = *built;
  if (!propagate(p)) return std::nullopt;

  // Collect representative classes in deterministic order.
  std::vector<size_t> classes;
  std::set<size_t> seen;
  for (const auto& name : p.vars) {
    const size_t cls = p.uf.find(p.var_idx[name]);
    if (seen.insert(cls).second) classes.push_back(cls);
  }
  std::unordered_map<size_t, ClassAssign> vals;
  if (!assign_classes(p, classes, 0, vals, stats)) return std::nullopt;

  Assignment out;
  for (const auto& name : p.vars) {
    out[name] = vals[p.uf.find(p.var_idx[name])].value();
  }
  // Final sanity check against the original pool (catches Ne-within-class
  // subtleties that the class decomposition could miss).
  if (!MiniSolver::check(pool, out)) return std::nullopt;
  return out;
}

}  // namespace

std::optional<Assignment> MiniSolver::solve(const ConstraintPool& pool,
                                            SolveStats* stats) {
  if (stats != nullptr) ++stats->calls;
  if (auto a = solve_in(pool, kPreferred, stats)) return a;
  return solve_in(pool, kFull, stats);
}

std::optional<Assignment> MiniSolver::solve_negation(
    const ConstraintPool& keep, const ConstraintPool& negate,
    SolveStats* stats) {
  for (size_t i = 0; i < negate.size(); ++i) {
    ConstraintPool attempt = keep;
    for (size_t j = 0; j < negate.size(); ++j) {
      const Constraint& c = negate.constraints()[j];
      if (j == i) {
        attempt.add(c.lhs, ndlog::negate(c.op), c.rhs);
      } else {
        attempt.add(c);
      }
    }
    if (auto a = solve(attempt, stats)) return a;
  }
  return std::nullopt;
}

bool MiniSolver::satisfiable(const ConstraintPool& pool, SolveStats* stats) {
  return solve(pool, stats).has_value();
}

bool MiniSolver::check(const ConstraintPool& pool, const Assignment& a) {
  std::vector<std::pair<std::string, Value>> flat(a.begin(), a.end());
  for (const auto& c : pool.constraints()) {
    if (!holds(c, flat)) return false;
  }
  return true;
}

}  // namespace mp::solver
