// Distributed NDlog evaluation engine.
//
// Each simulated node (controller, switch, host) holds a Database; rules
// fire in an event-driven fashion: when a tuple appears at a node, every
// rule with a matching body atom joins the remaining atoms against that
// node's materialized state, evaluates assignments then selections, and
// derives the head at the head's location (shipping a message if remote).
//
// - Rules are compiled once at construction (see eval/plan.h): table and
//   variable names are interned to dense ids, the join environment is a
//   flat slot frame with an undo trail, and every body atom with at least
//   one join-time-bound column is executed as a hash-index probe against
//   the TableStore's secondary indexes. Full scans remain only for atoms
//   with zero bound columns (or when EngineOptions::use_indexes is off,
//   which exists to cross-check the two paths in tests).
// - Trigger dispatch is constant-keyed: per table, the trigger plans are
//   bucketed by the constant they require on one column (TriggerIndex),
//   so an appearance visits only the plans that can unify with it, in
//   program order. Unrelated rules guarded by `Swi == c` cost nothing per
//   PacketIn. use_indexes off visits every plan (the reference mode).
// - Event tables (declared `event`) are transient: they trigger rules and
//   callbacks but are not stored (NDlog message semantics).
// - Materialized tables use derivation-support counting; deleting a base
//   tuple cascades through recorded derivations (counting algorithm).
// - Tables with declared primary keys follow key-replacement semantics:
//   a new row with an existing key displaces the old row.
// - Tag mode (Section 4.4): every tuple carries a candidate bitmask; a
//   rule firing ANDs the masks of its body tuples and the rule's own
//   restriction mask; derived tuples accumulate tags. This implements the
//   paper's multi-query backtesting ("one tag per repair candidate").
// - All activity is recorded in the EventLog for provenance and replay.
// - One firing path: every appearance, external or derived, is handled
//   tuple-at-a-time (handle_appear -> fire_rules -> exec_step ->
//   finish_rule). insert_batch is insert() in a loop with one
//   auto-compaction check at the end; it never changes the evaluation
//   order.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/database.h"
#include "eval/event_log.h"
#include "eval/history.h"
#include "eval/plan.h"
#include "ndlog/ast.h"
#include "ndlog/schema.h"
#include "storage/segment_store.h"

namespace mp::eval {

// String-keyed variable bindings. The engine's own join path runs on the
// slot Frame from eval/plan.h; this map remains the interchange format for
// the repair engine's symbolic re-execution (src/repair/forest.cpp).
using Env = std::unordered_map<std::string, Value>;

// Evaluates an expression under bindings; returns false if a variable is
// unbound or arithmetic is invalid (ndlog::arith_eval: division by zero,
// int64 overflow, string arith).
bool eval_expr(const ndlog::Expr& e, const Env& env, Value& out);

struct EngineOptions {
  bool record_provenance = true;  // turn off to measure overhead (S5.4)
  bool tag_mode = false;
  // Off: force full scans and visit every trigger plan of the appearing
  // table (the reference mode tests cross-check the indexed paths with).
  bool use_indexes = true;
  // Evaluate selections whose variables are bound mid-join during the
  // owning atom's probe/scan step instead of only at rule finish. Off:
  // finish-only evaluation (differential cross-check mode); the final
  // fixpoint, event log and derivations are identical either way (pinned
  // by tests/differential_test.cpp).
  bool pushdown_selections = true;
  size_t max_steps = 1'000'000;   // guard against runaway candidate programs
  // Auto-compaction policy (the ROADMAP's "mechanism only, no policy"
  // item): after a top-level insert/remove reaches fixpoint, if the log's
  // live suffix exceeds compact_after_events events, the engine calls
  // EventLog::compact() down to compact_keep_live live events. 0 (the
  // default) disables it: compaction drops in-memory Event structs, so
  // provenance-graph consumers that walk the live suffix must opt in
  // deliberately. Compaction needs a usable checkpoint sink (segment_dir
  // below); without one the policy does nothing and every event stays
  // live. Event ids, event_time() and replay stay valid across
  // auto-compactions.
  size_t compact_after_events = 0;
  size_t compact_keep_live = 256;
  // Durable event-log segments (src/storage). Non-empty: the engine owns
  // a SegmentStore rooted here and attaches it as the log's checkpoint
  // sink, the only place compact() sections go (append-only segment
  // files); segment_store carries the rotation / group-commit / fsync
  // policy knobs. The directory must not already hold events for a fresh
  // engine (ids would collide) — to continue from an existing directory,
  // recover the store yourself, replay it into the engine, then attach it
  // via log().set_spill() (the wiring is pinned by storage_test's
  // RecoveryContinuation).
  std::string segment_dir;
  storage::SegmentStoreOptions segment_store;
};

class Engine {
 public:
  explicit Engine(ndlog::Program program, EngineOptions opt = {});
  // Publishes outstanding obs deltas (see publish_obs) before teardown.
  ~Engine();
  // Compiled plans and per-node stores point into catalog_/index_specs_.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // External base-tuple insertion at tuple.location(). Runs the rule queue
  // to fixpoint before returning.
  void insert(const Tuple& t, TagMask tags = kAllTags);
  // External deletion of a base tuple; cascades through derivations.
  void remove(const Tuple& t);

  // Batched insertion. Exactly equivalent to inserting each tuple in order
  // with insert() — identical final table states, EventLog contents (and
  // order), derivation records and firing counts — which the differential
  // harness (tests/batch_test.cpp, tests/differential_test.cpp) enforces.
  // It is that loop, with the auto-compaction check run once, after the
  // last tuple. Each tuple's derived closure runs to fixpoint before the
  // next tuple is inserted: letting queued derived appearances race later
  // batch tuples would change key-replacement winners (last-appearance-wins
  // is order-dependent) and orphan tuples whose producing derivation was
  // cascaded away while they were still queued.
  void insert_batch(std::span<const Tuple> batch, TagMask tags = kAllTags);
  // Same, with a per-tuple tag mask (multi-query candidate insertion).
  void insert_batch(std::span<const std::pair<Tuple, TagMask>> batch);
  // Batched deletion: applies every removal (and its cascade) in order,
  // draining the work queue once at the end.
  void remove_batch(std::span<const Tuple> batch);

  bool exists(const Value& node, const std::string& table, const Row& row) const;
  std::vector<Row> rows(const Value& node, const std::string& table) const;
  // All currently-live tuples of `table` across every node.
  std::vector<Tuple> all_tuples(const std::string& table) const;
  // Pattern-filtered, allocation-light variant: visits every currently-live
  // tuple of `table` matching `pattern` with its owning node — no Tuple is
  // materialized and no vector built. `fn` returns false to stop early.
  // Returns the number of matches visited.
  size_t match_tuples(const std::string& table, const TuplePattern& pattern,
                      const std::function<bool(const Value& node,
                                               const Row& row)>& fn) const;
  TagMask tags_of(const Value& node, const std::string& table, const Row& row) const;
  const Database* db(const Value& node) const;

  // Called whenever a tuple of `table` appears anywhere (controller proxy
  // hooks FlowTable/packetOut derivations here).
  void on_appear(const std::string& table,
                 std::function<void(const Tuple&, TagMask)> cb);

  // Restrict a rule to a candidate tag mask (multi-query backtesting).
  void set_rule_restrict(const std::string& rule, TagMask mask);

  EventLog& log() { return log_; }
  const EventLog& log() const { return log_; }
  // The durable segment store when EngineOptions::segment_dir is set
  // (nullptr otherwise).
  storage::SegmentStore* segments() { return segments_.get(); }
  const storage::SegmentStore* segments() const { return segments_.get(); }
  // Indexed historical-tuple store (every Appear is recorded here when
  // provenance recording is on); the repair and provenance layers' history
  // lookups probe it instead of scanning the log. The non-const accessor
  // exists so tests can re-attach the store in forced-scan mode and
  // cross-check the two probe paths.
  HistoryStore& history() { return history_; }
  const HistoryStore& history() const { return history_; }
  const ndlog::Program& program() const { return program_; }
  const ndlog::Catalog& catalog() const { return catalog_; }

  bool diverged() const { return diverged_; }
  size_t steps() const { return steps_; }
  size_t rule_firings() const { return firings_; }
  // Join-path access statistics: secondary-index probes vs. full table
  // scans executed by atom steps (the trigger atom itself is neither).
  size_t index_probes() const { return index_probes_; }
  size_t full_scans() const { return full_scans_; }
  // Trigger plans fire_rules visited (see TriggerIndex): what the
  // constant-keyed dispatch left after skipping plans whose trigger
  // constant cannot match. With use_indexes off, every plan of the
  // appearing table is visited.
  size_t trigger_attempts() const { return trigger_attempts_; }

  // --- observability (src/obs) -----------------------------------------
  // The per-engine counters above are the exact, test-pinned numbers for
  // THIS engine; the process-wide obs registry carries their cumulative
  // sum across every engine under `eval.engine.*`. Publication is
  // deliberately off the hot path: publish_obs() adds the delta since the
  // last publish into the registry (and sets the eval.engine.log_events
  // gauge) — called automatically from the destructor, and explicitly by
  // exporters (the pipeline, smoke's --metrics-out) that want the
  // registry current while engines are still alive. No-op when
  // obs::set_enabled(false); counters themselves never reset (windowed
  // readings come from obs::Snapshot::delta — see src/obs/README.md).
  void publish_obs();

 private:
  struct PendingAppear {
    Tuple tuple;
    TableId table_id = 0;
    TagMask tags = 0;
    EventId cause = kNoEvent;  // event that produced it (Insert/Receive/Derive)
    TupleRef ref = kNoTupleRef;  // interned handle (provenance on)
    NodeRef node_ref = kNoNode;  // interned location (provenance on); saves
                                 // re-interning tuple.location() per append
  };

  Database& node_db(const Value& node);
  TableId intern_extern_table(const std::string& name);
  Row acquire_row();
  void release_row(Row&& row);
  // insert() without the auto-compaction check; insert_batch loops over it.
  void insert_one(const Tuple& t, TagMask tags);
  // External-tuple dispatch for insert_one: handle_appear in place at a
  // true top level — no queue round trip or Tuple copy — falling back to
  // the queue when re-entrant.
  void dispatch_external(const Tuple& t, TableId tid, TagMask tags,
                         EventId cause, TupleRef ref, NodeRef nref);
  void enqueue_appear(Tuple t, TableId tid, TagMask tags, EventId cause,
                      TupleRef ref, NodeRef nref);
  void remove_one(const Tuple& t);
  // Applies the EngineOptions auto-compaction policy; called when a
  // top-level mutation (never a nested or mid-fixpoint one) completes.
  void maybe_autocompact();
  void run_queue();
  // The drain loop proper; run_queue wraps it in the running_ bracket and
  // an unwind path (reset + queue discard) for exceptions thrown by
  // foreign code — the on_appear callbacks.
  void run_queue_body();
  void handle_appear(const Tuple& tuple, TableId table_id, TagMask tags,
                     EventId cause, TupleRef ref, NodeRef nref = kNoNode);
  void fire_rules(const Value& node, NodeRef nref, const Tuple& trigger,
                  TableId tid, TagMask mask, EventId trigger_event,
                  TupleRef trigger_ref);
  void exec_step(const CompiledRule& cr, const ndlog::Rule& rule,
                 const TriggerPlan& tp, size_t step_idx, const Database* db,
                 const Value& node, NodeRef nref, TagMask mask,
                 const Tuple& trigger, EventId trigger_event,
                 TupleRef trigger_ref);
  void run_callbacks(TableId tid, const Tuple& t, TagMask tags);
  void finish_rule(const CompiledRule& cr, const ndlog::Rule& rule,
                   const TriggerPlan& tp, const Value& node, NodeRef nref,
                   TagMask mask);
  // Evaluates pushed-down selections `sels` on the current frame; false =
  // some selection failed (prune this join branch).
  bool eval_pushed_sels(const CompiledRule& cr,
                        const std::vector<uint32_t>& sels);
  void derive(const CompiledRule& cr, const Value& src_node, NodeRef src_ref,
              Tuple head, TagMask mask, std::span<const EventId> cause_events,
              std::span<const TupleRef> body_refs);
  void retract(const Value& node, TableId tid, TupleRef ref);

  static bool unify_ops(const std::vector<ArgOp>& ops, const Row& row,
                        Frame& f);

  // Cached result of the last nodes_ lookup (key points at the map node,
  // which is stable — nodes are never erased). A homogeneous stream pays
  // one Value compare instead of a tree walk per dispatch.
  Database* find_node_db(const Value& node);

  ndlog::Program program_;
  ndlog::Catalog catalog_;
  EngineOptions opt_;
  IndexSpecs index_specs_;
  std::vector<CompiledRule> compiled_;  // one per program rule
  // Constant-keyed trigger dispatch for one table (src/eval/README.md,
  // "Trigger dispatch"). `plans` lists every (rule idx, body atom idx)
  // the table triggers, in program order; the other members hold
  // positions into it, ascending. A plan whose trigger ops include
  // Const{col, c} sits in keyed[c]; every other plan sits in `unkeyed`.
  // fire_rules merges keyed[row[col]] with `unkeyed` by position, so the
  // plans it visits are the unskippable ones, in program order.
  struct TriggerIndex {
    std::vector<std::pair<uint32_t, uint32_t>> plans;
    uint32_t col = 0;
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> keyed;
    std::vector<uint32_t> unkeyed;
  };
  void build_trigger_index(TriggerIndex& ti) const;
  std::vector<TriggerIndex> triggers_by_table_;
  std::vector<TagMask> rule_restrict_;  // per rule idx, default kAllTags
  // Every rule idx, ordered by its name's log_rule id (ties by idx), so
  // set_rule_restrict finds all rules of one name by binary search.
  std::vector<uint32_t> rules_by_name_;
  std::map<Value, Database> nodes_;
  // Two-entry node-db cache (keys point at map nodes, which are stable —
  // nodes are never erased). Two entries, not one: an external insert's
  // cascade alternates between the source node and the rule head's
  // destination every tuple, which thrashes a single slot into two tree
  // walks per tuple. MRU first; see find_node_db.
  const Value* node_cache_key_ = nullptr;
  Database* node_cache_db_ = nullptr;
  const Value* node_cache_key2_ = nullptr;
  Database* node_cache_db2_ = nullptr;
  // Durable checkpoint sink (EngineOptions::segment_dir); declared before
  // log_ so it outlives the log that spills into it.
  std::unique_ptr<storage::SegmentStore> segments_;
  EventLog log_;
  HistoryStore history_;
  std::deque<PendingAppear> queue_;
  // Appearance callbacks keyed by interned TableId (no string hash on the
  // appear path); slot resized on demand by on_appear().
  std::vector<std::vector<std::function<void(const Tuple&, TagMask)>>>
      callbacks_;
  // Join scratch, reused across firings (the join path is not re-entrant:
  // callbacks and derivations only enqueue work). Body provenance is
  // collected as interned handles — no Tuple is materialized on the join
  // path.
  Frame frame_;
  Row probe_key_;
  std::vector<EventId> cause_scratch_;
  std::vector<TupleRef> body_scratch_;
  // Recycled Row capacity for derived heads: finish_rule takes a row here,
  // run_queue returns it after the appearance is handled, so the
  // derive -> enqueue -> dispatch round trip does not malloc per firing.
  std::vector<Row> row_pool_;
  // One-entry table-interning cache for the external insert/receive entry
  // points, insert_batch included (homogeneous streams hash the table name
  // once, not per tuple).
  std::string extern_name_cache_;
  TableId extern_id_cache_ = 0;
  bool extern_cache_valid_ = false;
  bool diverged_ = false;
  size_t steps_ = 0;
  size_t firings_ = 0;
  size_t index_probes_ = 0;
  size_t full_scans_ = 0;
  size_t trigger_attempts_ = 0;
  // Counter values as of the last publish_obs() (same order as the
  // publication table in engine.cpp).
  size_t obs_published_[6] = {};
  bool running_ = false;
};

}  // namespace mp::eval
