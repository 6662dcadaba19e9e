#include "eval/engine.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "obs/obs.h"

namespace mp::eval {

bool eval_expr(const ndlog::Expr& e, const Env& env, Value& out) {
  using ndlog::Expr;
  switch (e.kind()) {
    case Expr::Kind::Const:
      out = e.cval();
      return true;
    case Expr::Kind::Var: {
      auto it = env.find(e.var_name());
      if (it == env.end()) return false;
      out = it->second;
      return true;
    }
    case Expr::Kind::Binary: {
      Value a, b;
      if (!eval_expr(*e.lhs(), env, a) || !eval_expr(*e.rhs(), env, b)) return false;
      return ndlog::arith_eval(e.op(), a, b, out);
    }
  }
  return false;
}

Engine::Engine(ndlog::Program program, EngineOptions opt)
    : program_(std::move(program)), catalog_(program_), opt_(opt) {
  log_.attach(&catalog_);  // pool TableIds == catalog TableIds
  if (!opt_.segment_dir.empty()) {
    segments_ = std::make_unique<storage::SegmentStore>(opt_.segment_dir,
                                                        opt_.segment_store);
    // A store that failed at attach time (unwritable directory) stays
    // detached: compaction has nowhere to go, so every event stays live,
    // and the condition is visible via segments()->failed() and the
    // storage.degraded counter.
    // (Under ErrorPolicy::kFailStop the constructor above threw instead.)
    if (!segments_->failed()) log_.set_spill(segments_.get());
  }
  compiled_.reserve(program_.rules.size());
  for (const auto& rule : program_.rules) {
    compiled_.push_back(compile_rule(rule, catalog_, index_specs_));
    compiled_.back().log_rule = log_.intern_rule(rule.name);
  }
  history_.attach(&catalog_, &log_.pool(), opt_.use_indexes);
  triggers_by_table_.resize(catalog_.size());
  rule_restrict_.assign(program_.rules.size(), kAllTags);
  rules_by_name_.resize(compiled_.size());
  std::iota(rules_by_name_.begin(), rules_by_name_.end(), 0u);
  std::stable_sort(rules_by_name_.begin(), rules_by_name_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return compiled_[a].log_rule < compiled_[b].log_rule;
                   });
  for (size_t r = 0; r < program_.rules.size(); ++r) {
    for (size_t b = 0; b < program_.rules[r].body.size(); ++b) {
      const TableId tid = catalog_.id_of(program_.rules[r].body[b].table);
      triggers_by_table_[tid].plans.emplace_back(static_cast<uint32_t>(r),
                                                 static_cast<uint32_t>(b));
    }
  }
  for (TriggerIndex& ti : triggers_by_table_) build_trigger_index(ti);
}

namespace {

// The constant a trigger plan requires at `col` (its first Const op
// there), or nullptr.
const Value* trigger_const_at(const TriggerPlan& tp, uint32_t col) {
  for (const ArgOp& op : tp.trigger_ops) {
    if (op.kind == ArgOp::Kind::Const && op.col == col) return &op.cval;
  }
  return nullptr;
}

}  // namespace

void Engine::build_trigger_index(TriggerIndex& ti) const {
  const auto plan_of = [&](uint32_t pos) -> const TriggerPlan& {
    const auto [rule_idx, body_idx] = ti.plans[pos];
    return compiled_[rule_idx].triggers[body_idx];
  };
  // The key column: the one where the most live plans hold a constant
  // (lowest column on ties). None, or use_indexes off: every plan stays
  // unkeyed, and fire_rules visits them all.
  std::vector<uint32_t> const_plans;  // per column
  for (uint32_t pos = 0; pos < ti.plans.size(); ++pos) {
    const TriggerPlan& tp = plan_of(pos);
    if (tp.dead) continue;
    for (uint32_t col = 0; col < tp.arity; ++col) {
      if (trigger_const_at(tp, col) == nullptr) continue;
      if (col >= const_plans.size()) const_plans.resize(col + 1, 0);
      ++const_plans[col];
    }
  }
  uint32_t best = 0;
  for (uint32_t col = 0; col < const_plans.size(); ++col) {
    if (const_plans[col] > best) {
      best = const_plans[col];
      ti.col = col;
    }
  }
  const bool use_key = opt_.use_indexes && best > 0;
  for (uint32_t pos = 0; pos < ti.plans.size(); ++pos) {
    const Value* c =
        use_key ? trigger_const_at(plan_of(pos), ti.col) : nullptr;
    if (c != nullptr) {
      ti.keyed[*c].push_back(pos);
    } else {
      ti.unkeyed.push_back(pos);
    }
  }
}

Engine::~Engine() { publish_obs(); }

void Engine::publish_obs() {
  if (!obs::enabled()) return;
  // Process-wide cumulative counters (eval.engine.*); per-engine exact
  // numbers stay in the plain members the accessors read — publication is
  // a cold-path delta add, never a hot-path atomic.
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter* const counters[] = {
      &reg.counter("eval.engine.steps"),
      &reg.counter("eval.engine.rule_firings"),
      &reg.counter("eval.engine.index_probes"),
      &reg.counter("eval.engine.full_scans"),
      &reg.counter("eval.engine.log_events_appended"),
      &reg.counter("eval.engine.trigger_attempts"),
  };
  const size_t current[] = {
      steps_,      firings_,    index_probes_,
      full_scans_, log_.size(), trigger_attempts_,
  };
  static_assert(std::size(current) ==
                sizeof(obs_published_) / sizeof(obs_published_[0]));
  for (size_t i = 0; i < std::size(current); ++i) {
    if (current[i] > obs_published_[i]) {
      counters[i]->add(current[i] - obs_published_[i]);
      obs_published_[i] = current[i];
    }
  }
  static obs::Gauge& live_events = reg.gauge("eval.engine.log_live_events");
  live_events.set(static_cast<int64_t>(log_.live_size()));
}

Database& Engine::node_db(const Value& node) {
  if (node_cache_key_ != nullptr && *node_cache_key_ == node) {
    return *node_cache_db_;
  }
  if (node_cache_key2_ != nullptr && *node_cache_key2_ == node) {
    std::swap(node_cache_key_, node_cache_key2_);  // keep MRU first
    std::swap(node_cache_db_, node_cache_db2_);
    return *node_cache_db_;
  }
  auto [it, inserted] = nodes_.try_emplace(node);
  if (inserted) {
    it->second.init(&catalog_, &index_specs_, &log_.pool());
  }
  // Safe to cache: nodes_ is a std::map (node-stable) and never erased.
  node_cache_key2_ = node_cache_key_;
  node_cache_db2_ = node_cache_db_;
  node_cache_key_ = &it->first;
  node_cache_db_ = &it->second;
  return it->second;
}

Database* Engine::find_node_db(const Value& node) {
  if (node_cache_key_ != nullptr && *node_cache_key_ == node) {
    return node_cache_db_;
  }
  if (node_cache_key2_ != nullptr && *node_cache_key2_ == node) {
    std::swap(node_cache_key_, node_cache_key2_);
    std::swap(node_cache_db_, node_cache_db2_);
    return node_cache_db_;
  }
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return nullptr;
  node_cache_key2_ = node_cache_key_;
  node_cache_db2_ = node_cache_db_;
  node_cache_key_ = &it->first;
  node_cache_db_ = &it->second;
  return &it->second;
}

TableId Engine::intern_extern_table(const std::string& name) {
  // One-entry cache: ids are stable and names unique, so a content match
  // can never be stale; a homogeneous insert stream pays one string
  // compare instead of a catalog hash per tuple.
  if (!extern_cache_valid_ || name != extern_name_cache_) {
    extern_id_cache_ = catalog_.intern(name);
    extern_name_cache_ = name;
    extern_cache_valid_ = true;
  }
  return extern_id_cache_;
}

Row Engine::acquire_row() {
  if (row_pool_.empty()) return Row();
  Row r = std::move(row_pool_.back());
  row_pool_.pop_back();
  r.clear();  // keeps the vector's capacity for the refill
  return r;
}

void Engine::release_row(Row&& row) {
  if (row_pool_.size() < 64) row_pool_.push_back(std::move(row));
}

void Engine::dispatch_external(const Tuple& t, TableId tid, TagMask tags,
                               EventId cause, TupleRef ref, NodeRef nref) {
  if (running_ || !queue_.empty()) {
    // Re-entrant entry (from an on_appear callback): queue it so the
    // outer drain keeps sequential order.
    enqueue_appear(t, tid, tags, cause, ref, nref);
    run_queue();
    return;
  }
  // Direct dispatch: handle the external appearance in place — no queue
  // round trip, no Tuple copy — then drain the derived work it enqueued.
  // The step accounting mirrors what the queue pop would have charged;
  // running_ is held so callbacks that insert() enqueue, as they would
  // inside a queue drain.
  if (++steps_ > opt_.max_steps) {
    diverged_ = true;
    return;
  }
  running_ = true;
  try {
    handle_appear(t, tid, tags, cause, ref, nref);
  } catch (...) {
    // An exception can only come from outside the engine proper — an
    // on_appear callback. Reset the re-entrancy flag and drop the queued
    // cascade so the engine stays usable (consistent-but-partial: this
    // op's remaining effects are discarded, matching run_queue's unwind
    // path).
    running_ = false;
    queue_.clear();
    throw;
  }
  running_ = false;
  run_queue();
}

void Engine::insert(const Tuple& t, TagMask tags) {
  insert_one(t, tags);
  maybe_autocompact();
}

void Engine::insert_one(const Tuple& t, TagMask tags) {
  if (!opt_.tag_mode) tags = kAllTags;
  const TableId tid = intern_extern_table(t.table);
  EventId cause = kNoEvent;
  TupleRef ref = kNoTupleRef;
  NodeRef nref = kNoNode;
  if (opt_.record_provenance) {
    ref = log_.pool().intern(tid, t.row);
    nref = log_.intern_node(t.location());
    cause = log_.append(EventKind::Insert, nref, ref, tags);
  }
  dispatch_external(t, tid, tags, cause, ref, nref);
}

void Engine::insert_batch(std::span<const Tuple> batch, TagMask tags) {
  for (const Tuple& t : batch) insert_one(t, tags);
  maybe_autocompact();
}

void Engine::insert_batch(std::span<const std::pair<Tuple, TagMask>> batch) {
  for (const auto& [t, tags] : batch) insert_one(t, tags);
  maybe_autocompact();
}

void Engine::remove(const Tuple& t) {
  remove_one(t);
  run_queue();
  maybe_autocompact();
}

void Engine::remove_batch(std::span<const Tuple> batch) {
  for (const Tuple& t : batch) remove_one(t);
  run_queue();
  maybe_autocompact();
}

void Engine::remove_one(const Tuple& t) {
  const TableId tid = catalog_.id_of(t.table);
  if (tid == ndlog::Catalog::kNoTable) return;
  auto node_it = nodes_.find(t.location());
  if (node_it == nodes_.end()) return;
  TableStore* store = node_it->second.store_if(tid);
  if (store == nullptr) return;
  Entry* e = store->find(t.row);
  if (e == nullptr || e->support <= 0) return;
  if (opt_.record_provenance) {
    // e->ref is always set: the store keys entries by their pool handle.
    log_.append(EventKind::Delete, t.location(), e->ref, e->tags);
  }
  e->support -= 1;
  if (e->support <= 0) retract(t.location(), tid, e->ref);
}

void Engine::maybe_autocompact() {
  if (opt_.compact_after_events == 0) return;
  // Only at a true top level: never mid-fixpoint (events later in the
  // drain may reference live entries).
  if (running_) return;
  // Without a usable sink compact() would move nothing; a degraded store
  // costs no work per insert.
  const CheckpointSink* sink = log_.spill();
  if (sink == nullptr || sink->failed()) return;
  if (log_.live_size() > opt_.compact_after_events) {
    log_.compact(opt_.compact_keep_live);
  }
}

bool Engine::exists(const Value& node, const std::string& table,
                    const Row& row) const {
  auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.exists(table, row);
}

std::vector<Row> Engine::rows(const Value& node, const std::string& table) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return {};
  return it->second.rows(table);
}

std::vector<Tuple> Engine::all_tuples(const std::string& table) const {
  std::vector<Tuple> out;
  const TableId tid = catalog_.id_of(table);
  if (tid == ndlog::Catalog::kNoTable) return out;
  for (const auto& [node, db] : nodes_) {
    for (Row& row : db.rows(tid)) {
      out.push_back(Tuple{table, std::move(row)});
    }
  }
  return out;
}

size_t Engine::match_tuples(
    const std::string& table, const TuplePattern& pattern,
    const std::function<bool(const Value& node, const Row& row)>& fn) const {
  size_t matched = 0;
  const TableId tid = catalog_.id_of(table);
  if (tid == ndlog::Catalog::kNoTable) return matched;
  for (const auto& [node, db] : nodes_) {
    const TableStore* store = db.store_if(tid);
    if (store == nullptr) continue;
    for (uint32_t slot = 0; slot < store->slot_count(); ++slot) {
      if (store->ref_at(slot) == kNoTupleRef) continue;
      const Row& row = store->row_at(slot);
      if (store->entry_at(slot).support <= 0 || !pattern.matches(row)) continue;
      ++matched;
      if (!fn(node, row)) return matched;
    }
  }
  return matched;
}

TagMask Engine::tags_of(const Value& node, const std::string& table,
                        const Row& row) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  const TableStore* t = it->second.table(table);
  if (t == nullptr) return 0;
  const Entry* e = t->find(row);
  return (e != nullptr && e->support > 0) ? e->tags : 0;
}

const Database* Engine::db(const Value& node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

void Engine::on_appear(const std::string& table,
                       std::function<void(const Tuple&, TagMask)> cb) {
  const TableId tid = catalog_.intern(table);
  if (tid >= callbacks_.size()) callbacks_.resize(tid + 1);
  callbacks_[tid].push_back(std::move(cb));
}

void Engine::run_callbacks(TableId tid, const Tuple& t, TagMask tags) {
  if (tid >= callbacks_.size()) return;
  for (const auto& cb : callbacks_[tid]) cb(t, tags);
}

void Engine::set_rule_restrict(const std::string& rule, TagMask mask) {
  // By name, not by index: duplicate rule names (invalid but possible in
  // candidate programs) must all be restricted.
  const RuleId id = log_.find_rule(rule);
  auto it = std::lower_bound(
      rules_by_name_.begin(), rules_by_name_.end(), id,
      [&](uint32_t r, RuleId want) { return compiled_[r].log_rule < want; });
  for (; it != rules_by_name_.end() && compiled_[*it].log_rule == id; ++it)
    rule_restrict_[*it] = mask;
}

void Engine::enqueue_appear(Tuple t, TableId tid, TagMask tags, EventId cause,
                            TupleRef ref, NodeRef nref) {
  queue_.push_back(PendingAppear{std::move(t), tid, tags, cause, ref, nref});
}

void Engine::run_queue() {
  if (running_) return;  // re-entrant insert from a callback: outer loop drains
  running_ = true;
  try {
    run_queue_body();
  } catch (...) {
    // See dispatch_external: only foreign code (the on_appear callbacks)
    // throws through here. Unwind to a usable engine.
    running_ = false;
    queue_.clear();
    throw;
  }
  running_ = false;
}

void Engine::run_queue_body() {
  while (!queue_.empty()) {
    if (++steps_ > opt_.max_steps) {
      diverged_ = true;
      queue_.clear();
      break;
    }
    PendingAppear p = std::move(queue_.front());
    queue_.pop_front();
    handle_appear(p.tuple, p.table_id, p.tags, p.cause, p.ref, p.node_ref);
    release_row(std::move(p.tuple.row));
  }
}

void Engine::handle_appear(const Tuple& tuple, TableId table_id, TagMask tags,
                           EventId cause, TupleRef ref, NodeRef nref) {
  const Value& node = tuple.location();
  const bool is_event = catalog_.is_event(table_id);
  EventId appear_ev = cause;
  // Stored tables always intern (provenance on or off): the stores key
  // their entries by pool handle, so the appearance pays the pool's
  // once-per-distinct-tuple hash instead of a Row hash per insert.
  // Transient event tables are never stored, so they only need a handle
  // when the appearance is logged.
  if (ref == kNoTupleRef && (!is_event || opt_.record_provenance)) {
    ref = log_.pool().intern(table_id, tuple.row);
  }
  if (nref == kNoNode && opt_.record_provenance) {
    nref = log_.intern_node(node);
  }

  if (!is_event) {
    TableStore& store = node_db(node).store(table_id);

    // Primary-key replacement: displace an existing row with the same key.
    const ndlog::TableDecl& decl = catalog_.decl(table_id);
    if (!decl.keys.empty() && decl.keys.size() < decl.arity) {
      const Row key = catalog_.key_of(table_id, tuple.row);
      const TupleRef old = store.ref_with_key(key);
      if (old != kNoTupleRef && old != ref) {  // same key, different row
        const Entry* oe = store.find_ref(old);
        if (oe != nullptr && oe->support > 0) {
          retract(node, table_id, old);
        }
      }
      store.index_key(key, ref);
    }

    Entry& e = store.insert_ref(ref);
    const bool was_present = e.support > 0;
    const TagMask new_tags = opt_.tag_mode ? (e.tags | tags) : kAllTags;
    e.support += 1;
    const TagMask added_tags = opt_.tag_mode ? (new_tags & ~e.tags) : kAllTags;
    e.tags = new_tags;
    if (was_present && (!opt_.tag_mode || added_tags == 0)) {
      // Extra support for an already-visible row: no new appearance.
      return;
    }
    if (opt_.record_provenance) {
      appear_ev = log_.append(EventKind::Appear, nref, ref, e.tags,
                              cause == kNoEvent
                                  ? std::span<const EventId>{}
                                  : std::span<const EventId>{&cause, 1});
      history_.record(table_id, ref);
    }
    e.appear_event = appear_ev;  // e.ref was set by insert_ref
  } else {
    if (opt_.record_provenance) {
      appear_ev = log_.append(EventKind::Appear, nref, ref, tags,
                              cause == kNoEvent
                                  ? std::span<const EventId>{}
                                  : std::span<const EventId>{&cause, 1});
      history_.record(table_id, ref);
    }
  }

  run_callbacks(table_id, tuple, tags);

  fire_rules(node, nref, tuple, table_id, tags, appear_ev, ref);
}

void Engine::fire_rules(const Value& node, NodeRef nref, const Tuple& trigger,
                        TableId tid, TagMask mask, EventId trigger_event,
                        TupleRef trigger_ref) {
  if (tid >= triggers_by_table_.size()) return;  // interned after construction
  const TriggerIndex& ti = triggers_by_table_[tid];
  // Skipping a keyed plan whose constant differs from row[col] is exact:
  // unify_ops would fail on that Const op before touching anything but
  // the frame scratch. A row too short for `col` fails every keyed plan's
  // arity check, so only the unkeyed ones remain.
  const std::vector<uint32_t>* hit = nullptr;
  if (!ti.keyed.empty() && ti.col < trigger.row.size()) {
    const auto it = ti.keyed.find(trigger.row[ti.col]);
    if (it != ti.keyed.end()) hit = &it->second;
  }
  const size_t nhit = hit == nullptr ? 0 : hit->size();
  const size_t nunkeyed = ti.unkeyed.size();
  const Database* db = find_node_db(node);
  // Merge the two ascending position lists: program order, as a walk of
  // every plan would visit them.
  for (size_t h = 0, u = 0; h < nhit || u < nunkeyed;) {
    const bool take_hit =
        u == nunkeyed || (h < nhit && (*hit)[h] < ti.unkeyed[u]);
    const uint32_t pos = take_hit ? (*hit)[h++] : ti.unkeyed[u++];
    ++trigger_attempts_;
    const auto [rule_idx, body_idx] = ti.plans[pos];
    const CompiledRule& cr = compiled_[rule_idx];
    const TriggerPlan& tp = cr.triggers[body_idx];
    if (tp.dead) continue;
    TagMask rule_mask = mask;
    if (opt_.tag_mode) {
      rule_mask &= rule_restrict_[rule_idx];
      if (rule_mask == 0) continue;
    }
    if (trigger.row.size() != tp.arity) continue;
    frame_.reset(cr.nslots);
    if (!unify_ops(tp.trigger_ops, trigger.row, frame_)) continue;
    if (opt_.pushdown_selections && !eval_pushed_sels(cr, tp.trigger_sels)) {
      continue;
    }
    const ndlog::Rule& rule = program_.rules[rule_idx];
    if (opt_.record_provenance) {
      cause_scratch_.assign(rule.body.size(), kNoEvent);
      body_scratch_.assign(rule.body.size(), kNoTupleRef);
      cause_scratch_[body_idx] = trigger_event;
      body_scratch_[body_idx] = trigger_ref;
    }
    exec_step(cr, rule, tp, 0, db, node, nref, rule_mask, trigger,
              trigger_event, trigger_ref);
    if (diverged_) return;
  }
}

bool Engine::eval_pushed_sels(const CompiledRule& cr,
                              const std::vector<uint32_t>& sels) {
  for (uint32_t i : sels) {
    const CompiledSelection& sel = cr.sels[i];
    Value sa, sb;
    const Value* a = sel.lhs.eval_ref(frame_, sa);
    const Value* b = sel.rhs.eval_ref(frame_, sb);
    if (a == nullptr || b == nullptr || !ndlog::cmp_eval(sel.op, *a, *b)) {
      return false;
    }
  }
  return true;
}

void Engine::exec_step(const CompiledRule& cr, const ndlog::Rule& rule,
                       const TriggerPlan& tp, size_t step_idx,
                       const Database* db, const Value& node, NodeRef nref,
                       TagMask mask, const Tuple& trigger,
                       EventId trigger_event, TupleRef trigger_ref) {
  if (++steps_ > opt_.max_steps) {
    diverged_ = true;
    return;
  }
  if (step_idx == tp.steps.size()) {
    finish_rule(cr, rule, tp, node, nref, mask);
    return;
  }
  const AtomStep& st = tp.steps[step_idx];
  const bool pushdown = opt_.pushdown_selections;

  if (st.access == AtomStep::Access::TriggerSelf) {
    // Event tables cannot be joined from storage (they are transient); the
    // only way an event atom is satisfied is as the trigger itself.
    if (trigger.row.size() != st.arity) return;
    const size_t m = frame_.mark();
    if (unify_ops(st.full_ops, trigger.row, frame_) &&
        (!pushdown || eval_pushed_sels(cr, st.sels))) {
      if (opt_.record_provenance) {
        cause_scratch_[st.body_pos] = trigger_event;
        body_scratch_[st.body_pos] = trigger_ref;
      }
      exec_step(cr, rule, tp, step_idx + 1, db, node, nref, mask, trigger,
                trigger_event, trigger_ref);
    }
    frame_.undo_to(m);
    return;
  }

  if (db == nullptr) return;
  const TableStore* store = db->store_if(st.table);
  if (store == nullptr) return;

  if (st.access == AtomStep::Access::Probe && opt_.use_indexes) {
    ++index_probes_;
    // probe_key_ is scratch: dead once probe() returns, so reuse across
    // recursion levels is safe.
    probe_key_.clear();
    probe_key_.reserve(st.key.size());
    for (const KeyPart& kp : st.key) {
      probe_key_.push_back(kp.is_const ? kp.cval : frame_.slots[kp.slot]);
    }
    const TableStore::Bucket* bucket =
        store->probe(static_cast<size_t>(st.index_id), probe_key_);
    if (bucket == nullptr) return;
    for (uint32_t slot : *bucket) {
      const Entry& entry = store->entry_at(slot);
      if (entry.support <= 0) continue;
      const TagMask m2 = opt_.tag_mode ? (mask & entry.tags) : mask;
      if (opt_.tag_mode && m2 == 0) continue;
      const Row& row = store->row_at(slot);
      if (row.size() != st.arity) continue;
      const size_t m = frame_.mark();
      if (unify_ops(st.residual_ops, row, frame_) &&
          (!pushdown || eval_pushed_sels(cr, st.sels))) {
        if (opt_.record_provenance) {
          cause_scratch_[st.body_pos] = entry.appear_event;
          body_scratch_[st.body_pos] = entry.ref;
        }
        exec_step(cr, rule, tp, step_idx + 1, db, node, nref, m2, trigger,
                  trigger_event, trigger_ref);
      }
      frame_.undo_to(m);
      if (diverged_) return;
    }
    return;
  }

  // Full scan: atoms with zero bound columns, or use_indexes disabled.
  ++full_scans_;
  for (uint32_t slot = 0; slot < store->slot_count(); ++slot) {
    if (store->ref_at(slot) == kNoTupleRef) continue;
    const Entry& entry = store->entry_at(slot);
    if (entry.support <= 0) continue;
    const TagMask m2 = opt_.tag_mode ? (mask & entry.tags) : mask;
    if (opt_.tag_mode && m2 == 0) continue;
    const Row& row = store->row_at(slot);
    if (row.size() != st.arity) continue;
    const size_t m = frame_.mark();
    if (unify_ops(st.full_ops, row, frame_) &&
        (!pushdown || eval_pushed_sels(cr, st.sels))) {
      if (opt_.record_provenance) {
        cause_scratch_[st.body_pos] = entry.appear_event;
        body_scratch_[st.body_pos] = entry.ref;
      }
      exec_step(cr, rule, tp, step_idx + 1, db, node, nref, m2, trigger,
                trigger_event, trigger_ref);
    }
    frame_.undo_to(m);
    if (diverged_) return;
  }
}

void Engine::finish_rule(const CompiledRule& cr, const ndlog::Rule& rule,
                         const TriggerPlan& tp, const Value& node,
                         NodeRef nref, TagMask mask) {
  const size_t m = frame_.mark();
  // Assignments bind new slots in order, then selections filter —
  // skipping those already evaluated inside the join (pushdown); their
  // slots cannot have changed since (assignment-target selections are
  // never pushed).
  for (const CompiledAssign& asg : cr.assigns) {
    Value v;
    if (!asg.expr.eval(frame_, v)) {
      frame_.undo_to(m);
      return;
    }
    frame_.rebind(asg.slot, std::move(v));
  }
  const uint64_t pushed = opt_.pushdown_selections ? tp.pushed_mask : 0;
  for (size_t i = 0; i < cr.sels.size(); ++i) {
    if (i < 64 && ((pushed >> i) & 1)) continue;
    const CompiledSelection& sel = cr.sels[i];
    Value sa, sb;
    const Value* a = sel.lhs.eval_ref(frame_, sa);
    const Value* b = sel.rhs.eval_ref(frame_, sb);
    if (a == nullptr || b == nullptr || !ndlog::cmp_eval(sel.op, *a, *b)) {
      frame_.undo_to(m);
      return;
    }
  }
  Tuple head;
  head.table = rule.head.table;
  head.row = acquire_row();
  head.row.reserve(cr.head_args.size());
  for (const SlotExpr& arg : cr.head_args) {
    Value v;
    if (!arg.eval(frame_, v)) {
      frame_.undo_to(m);
      return;
    }
    head.row.push_back(std::move(v));
  }
  ++firings_;
  if (opt_.record_provenance) {
    derive(cr, node, nref, std::move(head), mask, cause_scratch_,
           body_scratch_);
  } else {
    derive(cr, node, nref, std::move(head), mask, {}, {});
  }
  frame_.undo_to(m);
}

void Engine::derive(const CompiledRule& cr, const Value& src_node,
                    NodeRef src_ref, Tuple head, TagMask mask,
                    std::span<const EventId> cause_events,
                    std::span<const TupleRef> body_refs) {
  EventId derive_ev = kNoEvent;
  TupleRef href = kNoTupleRef;
  if (opt_.record_provenance) {
    if (src_ref == kNoNode) src_ref = log_.intern_node(src_node);
    href = log_.pool().intern(cr.head_table, head.row);
    derive_ev = log_.append(EventKind::Derive, src_ref, href, mask,
                            cause_events, cr.log_rule);
    // body_refs[i] corresponds to the rule's body[i] (the repair engine's
    // symbolic re-execution relies on this alignment).
    log_.add_derivation(cr.log_rule, href, body_refs, derive_ev);
  }
  EventId cause = derive_ev;
  const Value& dst = head.location();
  const bool local_head = dst == src_node;
  NodeRef dst_ref = local_head ? src_ref : kNoNode;
  if (!local_head && opt_.record_provenance) {
    dst_ref = log_.intern_node(dst);
    const EventId send_ev =
        log_.append(EventKind::Send, src_ref, href, mask,
                    derive_ev == kNoEvent
                        ? std::span<const EventId>{}
                        : std::span<const EventId>{&derive_ev, 1});
    cause = log_.append(EventKind::Receive, dst_ref, href, mask, {&send_ev, 1});
  }
  enqueue_appear(std::move(head), cr.head_table, mask, cause, href, dst_ref);
}

void Engine::retract(const Value& node, TableId tid, TupleRef ref) {
  Database* ndb = find_node_db(node);
  if (ndb == nullptr) return;
  TableStore* store = ndb->store_if(tid);
  if (store == nullptr) return;
  Entry* e = store->find_ref(ref);
  if (e == nullptr) return;
  e->support = 0;
  const TagMask tags = e->tags;
  e->tags = 0;
  if (opt_.record_provenance) {
    log_.append(EventKind::Disappear, node, ref, tags);
  }
  // The pool row is stable forever — safe to reference across the erase.
  const Row& row = log_.row_of(ref);
  const ndlog::TableDecl& decl = catalog_.decl(tid);
  if (!decl.keys.empty() && decl.keys.size() < decl.arity) {
    const Row key = catalog_.key_of(tid, row);
    if (store->ref_with_key(key) == ref) store->unindex_key(key);
  }
  store->erase_ref(ref);

  // Cascade: every live derivation that consumed the tuple loses support.
  // The callback walk visits the index bucket directly (no snapshot
  // vector); liveness is checked at visit time, so records cascaded away
  // by the recursion below are skipped exactly as the old re-check did.
  // All of it runs on handles; no head is materialized.
  if (!opt_.record_provenance) return;
  log_.for_each_derivation_using(ref, [&](size_t idx) {
    DerivRecord& rec = log_.derivation(idx);
    rec.live = false;
    const TupleRef href = rec.head;
    const TableId htid = log_.table_of(href);
    const Value& hloc = log_.row_of(href)[0];
    log_.append(EventKind::Underive, hloc, href, kAllTags, {}, rec.rule);
    if (catalog_.is_event(htid)) return true;  // nothing stored
    Database* hdb = find_node_db(hloc);
    if (hdb == nullptr) return true;
    TableStore* hstore = hdb->store_if(htid);
    if (hstore == nullptr) return true;
    Entry* he = hstore->find_ref(href);
    if (he == nullptr || he->support <= 0) return true;
    he->support -= 1;
    if (he->support <= 0) retract(hloc, htid, href);
    return true;
  });
}

bool Engine::unify_ops(const std::vector<ArgOp>& ops, const Row& row,
                       Frame& f) {
  for (const ArgOp& op : ops) {
    const Value& v = row[op.col];
    switch (op.kind) {
      case ArgOp::Kind::Const:
        if (!(op.cval == v)) return false;
        break;
      case ArgOp::Kind::Bind:
        f.bind(op.slot, v);
        break;
      case ArgOp::Kind::Check:
        if (!(f.slots[op.slot] == v)) return false;
        break;
    }
  }
  return true;
}

}  // namespace mp::eval
