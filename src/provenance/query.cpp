#include "provenance/query.h"

#include <set>

#include "obs/span.h"

namespace mp::prov {

namespace {

// Walks the derivation record graph on interned handles; Tuples are
// materialized only when a vertex is emitted (the graph's labels keep
// their exact pre-pool formatting).
void explain_ref(const eval::Engine& engine, ProvenanceGraph& g, size_t parent,
                 eval::TupleRef ref, size_t depth,
                 std::set<eval::TupleRef>& on_path) {
  const auto& log = engine.log();
  if (depth == 0 || on_path.count(ref)) return;
  on_path.insert(ref);

  if (!log.has_derivation_of(ref)) {
    // Base tuple: leaf INSERT vertex.
    Vertex v;
    v.kind = VertexKind::Insert;
    v.tuple = log.materialize(ref);
    v.node = v.tuple.location();
    const size_t idx = g.add(std::move(v));
    g.link(parent, idx);
  } else {
    log.for_each_derivation_of(ref, [&](size_t d) {
      const eval::DerivRecord& rec = log.derivations()[d];
      Vertex v;
      v.kind = VertexKind::Derive;
      v.tuple = log.head_of(rec);
      v.node = v.tuple.location();
      v.rule = log.rule_name(rec.rule);
      // event_time (not event()): the derive event may already have been
      // compacted into the log's segment store.
      v.time = log.event_time(rec.derive_event);
      const size_t idx = g.add(std::move(v));
      g.link(parent, idx);
      for (eval::TupleRef b : log.body_of(rec)) {
        Vertex bv;
        bv.kind = VertexKind::Exist;
        bv.tuple = log.materialize(b);
        bv.node = bv.tuple.location();
        const size_t bidx = g.add(std::move(bv));
        g.link(idx, bidx);
        explain_ref(engine, g, bidx, b, depth - 1, on_path);
      }
      return true;
    });
  }
  on_path.erase(ref);
}

}  // namespace

ProvenanceGraph explain_exists(const eval::Engine& engine,
                               const eval::Tuple& tuple, size_t max_depth) {
  static const obs::TracedPhase kPhaseExplainExists("prov.explain_exists");
  const obs::Scope scope(kPhaseExplainExists);
  ProvenanceGraph g;
  Vertex root;
  root.kind = VertexKind::Exist;
  root.node = tuple.location();
  root.tuple = tuple;
  g.add(std::move(root));
  const eval::TupleRef ref = engine.log().find_ref(tuple);
  if (ref != eval::kNoTupleRef) {
    std::set<eval::TupleRef> on_path;
    explain_ref(engine, g, 0, ref, max_depth, on_path);
  } else if (max_depth > 0) {
    // Never recorded: no derivations exist, so the pre-pool walk emitted a
    // base-tuple INSERT leaf under the root; keep that shape.
    Vertex v;
    v.kind = VertexKind::Insert;
    v.node = tuple.location();
    v.tuple = tuple;
    const size_t idx = g.add(std::move(v));
    g.link(0, idx);
  }
  return g;
}

ProvenanceGraph explain_missing(const eval::Engine& engine,
                                const TuplePattern& pattern,
                                size_t max_depth) {
  static const obs::TracedPhase kPhaseExplainMissing("prov.explain_missing");
  const obs::Scope scope(kPhaseExplainMissing);
  ProvenanceGraph g;
  Vertex root;
  root.kind = VertexKind::NExist;
  root.tuple.table = pattern.table;
  root.node = Value::str("?");
  g.add(std::move(root));
  if (max_depth == 0) return g;

  const auto& program = engine.program();
  const auto& history = engine.history();
  for (const auto& rule : program.rules) {
    if (rule.head.table != pattern.table) continue;
    // NDERIVE: this rule failed to derive a matching tuple.
    Vertex nd;
    nd.kind = VertexKind::NDerive;
    nd.rule = rule.name;
    nd.tuple.table = pattern.table;
    nd.node = Value::str("?");
    const size_t nd_idx = g.add(std::move(nd));
    g.link(0, nd_idx);

    // For each body atom, record whether any historical tuple could have
    // matched it (EXIST child) or none did (NAPPEAR child).
    for (const auto& atom : rule.body) {
      TuplePattern any_of;  // unconstrained: representative lookup
      any_of.table = atom.table;
      bool any = false;
      history.probe(any_of, [&](eval::TupleRef ref) {
        // Cheap arity screen: full unification is done by the repair
        // engine; here we only build the explanatory tree.
        if (history.row_of(ref).size() != atom.args.size()) return true;
        any = true;
        Vertex ev;
        ev.kind = VertexKind::Exist;
        ev.tuple = history.materialize(ref);
        ev.node = ev.tuple.location();
        const size_t eidx = g.add(std::move(ev));
        g.link(nd_idx, eidx);
        return false;  // one representative per atom keeps the tree readable
      });
      if (!any) {
        Vertex nv;
        nv.kind = VertexKind::NAppear;
        nv.tuple.table = atom.table;
        nv.node = Value::str("?");
        const size_t nidx = g.add(std::move(nv));
        g.link(nd_idx, nidx);
      }
    }
  }
  return g;
}

}  // namespace mp::prov
