// Append-only event log: the runtime's provenance record (Section 3.1).
// Every insert / derive / appear / send / receive / delete is logged with a
// logical timestamp and causal links. Three consumers read it:
//   - provenance graph construction (src/provenance),
//   - derivation-record lookups for meta-provenance (src/repair) — the
//     historical-tuple side of those lookups lives in the HistoryStore
//     (eval/history.h), carved out of this class so it can be indexed and
//     rebuilt independently of the immutable record,
//   - backtest replay and storage accounting (src/backtest, Section 5.4).
//
// Records are fixed-width handles into interned storage, not heap-owning
// structs: an Event carries a TupleRef into the log's TuplePool (32-bit
// handle; the pooled slot keeps the dense TableId and precomputed hash), an
// interned RuleId, and an (offset, count) view into the log's cause arena.
// DerivRecords likewise hold the head as a TupleRef and the body as a view
// into a TupleRef arena. Appending an event is therefore a few integer
// stores plus an arena copy of the cause ids — no table-string, Row or
// vector allocation — which is what closes the provenance-recording gap
// on the packet-processing hot path (BENCH_engine.json
// `provenance_overhead`). Consumers that need materialized tuples go
// through tuple_of()/materialize(); equality tests anywhere downstream
// are handle compares.
//
// Table names resolve through an ndlog::Catalog: an engine attach()es its
// own catalog (so TableIds match the engine's id space); a standalone log
// (tests) owns a private catalog and interns lazily.
//
// The log is checkpointable into one place, an attached CheckpointSink
// (src/storage's durable segment store, set_spill()): compact() serializes
// the oldest events into a fixed-header format (Section 5.4, layout in
// eval/ckpt_format.h), hands the section to the sink and drops the
// in-memory Event copies, so the record no longer grows without bound.
// Table and rule names are written once per section into a string-table
// record blob the first time an id is referenced; entries store the
// 16-bit ids. Without a usable sink (none attached, or one that latched
// failed()) compact() moves nothing and the events stay live: durability
// is lost, never events. Ids stay stable across compaction — the id space
// is [0, size()), of which [base_id(), size()) is held live. The record
// has one reading contract: for_each_event() hands every event, spilled
// or live, to its callback as an EventView — the spilled prefix straight
// from the sink's standalone reader (storage::SegmentReader, the one
// checkpoint decoder), the live suffix as views over the pool, catalog,
// interners and cause arena.
// TupleRefs survive compaction: the pool is never truncated, so handles
// held by the history store or table entries remain valid (pinned by
// tests/tuple_pool_test.cpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "eval/tuple.h"
#include "eval/tuple_pool.h"
#include "ndlog/schema.h"

namespace mp::eval {

using EventId = uint64_t;
using Time = uint64_t;
inline constexpr EventId kNoEvent = ~0ULL;

// Interned rule name (EventLog::intern_rule / rule_name). Event stores
// rule ids in 16 bits (the checkpoint format always did), so the no-rule
// sentinel is 0xffff — the same value the serialized format uses — and a
// u16 Event::rule compares against it correctly under integer promotion.
// intern_rule() asserts the id space stays below the sentinel.
using RuleId = uint32_t;
inline constexpr RuleId kNoRule = 0xffff;

// Interned event-location Value (EventLog::intern_node / node_value).
// Fixed-width handle so Event stays trivially copyable: the old
// `Value node` member made every Event carry (and every log-vector
// growth copy) a 48-byte Value with a live std::string.
using NodeRef = uint32_t;
inline constexpr NodeRef kNoNode = ~NodeRef{0};

enum class EventKind : uint8_t {
  Insert,     // base tuple inserted externally
  Delete,     // base tuple deleted externally
  Derive,     // rule produced a tuple
  Underive,   // rule-produced support lost
  Appear,     // tuple became visible at a node
  Disappear,  // tuple vanished from a node
  Send,       // +tuple shipped to a remote node
  Receive,    // +tuple arrived from a remote node
};

const char* to_string(EventKind k);

// 32-byte event record (wave 3; was 40 bytes, before that 48).
//   - No timestamp field: append assigns logical times 1, 2, 3, ... in id
//     order, so an event's time is always id + 1 (event_time()).
//   - causes_begin is a u32 offset RELATIVE to the current start of the
//     cause arena. compact() rebases live offsets to 0 when it drops the
//     arena prefix, so offsets never grow past the live arena size.
//   - rule is the u16 id space the checkpoint format always used
//     (kNoRule == 0xffff fits); ncauses is capped at 255 by append (causes
//     per event = rule body size or 1).
// Event is the storage format of the live suffix (events()); the full
// record, spilled prefix included, reads back as EventViews
// (for_each_event).
struct Event {
  EventId id = kNoEvent;
  TagMask tags = kAllTags;
  uint32_t causes_begin = 0;     // cause-arena-relative offset
  NodeRef node = kNoNode;        // where it happened (EventLog::node_value)
  TupleRef tuple = kNoTupleRef;  // into the owning log's TuplePool
  uint16_t rule = static_cast<uint16_t>(kNoRule);  // for Derive/Underive
  uint8_t ncauses = 0;           // direct causal predecessors
  EventKind kind = EventKind::Insert;
};
// The live suffix is a std::deque<Event> appended to on every recorded
// step: growth adds a block and never moves an event, trivial
// copyability keeps each push_back a plain store, and the exact 32-byte
// size keeps two events per cache line on the append hot path.
static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) == 32);

// A derivation record links a derived head tuple to the concrete body
// tuples that produced it; used for positive provenance trees and for
// support-count cascade on deletion. head/body are handles; body refs live
// in the owning log's body arena (EventLog::body_of).
struct DerivRecord {
  EventId derive_event = kNoEvent;
  uint64_t body_begin = 0;      // offset into the body-ref arena
  TupleRef head = kNoTupleRef;
  RuleId rule = kNoRule;
  // Previous record with the same head (the head index is an intrusive
  // chain, not a per-ref vector: appending a derivation allocates
  // nothing). Linked BACKWARD — the new record points at the old tail —
  // so an append writes only the hot just-pushed record and the chain
  // head, never a cold old record (the forward link used to be the one
  // guaranteed cache miss per derivation on the recording hot path).
  // Readers walk back and reverse (for_each_derivation_of), preserving
  // insertion-order visitation.
  uint32_t prev_same_head = ~uint32_t{0};
  uint16_t nbody = 0;
  bool live = true;  // false once the derivation has been retracted
};

// One event of the record as every reader sees it, whether it is live or
// spilled: names, location and row resolved to values, causes inline.
// EventLog::for_each_event builds live views over the log's catalog,
// interners, pool and cause arena; the durable segment store's standalone
// reader (storage::SegmentReader) builds spilled views from a section's
// own string-table records, with no pool, catalog or engine attached.
// Every member points into its producer's storage and is valid only for
// the callback the view is passed to; a nested walk gets views of its own.
struct EventView {
  EventId id = kNoEvent;         // time - 1 (times are dense in id order)
  TagMask tags = kAllTags;
  EventKind kind = EventKind::Insert;
  std::string_view table;
  std::string_view rule;         // empty = no rule
  const Value* node = nullptr;   // where it happened
  const Row* row = nullptr;      // the tuple's values
  std::span<const EventId> causes;
};

// The canonical one-line form of an event,
// `KIND(t=<id+1>, @<node>, <table>(<row>)[, rule=<rule>])` (causes are
// not part of it).
std::string to_string(const EventView& e);

// The home for compacted checkpoint sections. src/storage implements this
// over append-only segment files; the log hands every compact() section
// to the sink (dropping the live Events), and for_each_event streams the
// spilled prefix back through replay_raw() as EventViews.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  // Appends one serialized checkpoint section: `entries` covers events
  // [first_id, first_id + count) in the eval/ckpt_format.h entry layout,
  // `names` holds the string-table records the section references (each
  // section is self-contained: the log dedups names per section, so a
  // sink may rotate to a new segment file at any section boundary).
  // Returns true iff the sink accepted the section (it then counts toward
  // events() and replays through replay_raw). A sink that has latched
  // failed() returns false; compact() then leaves the events live —
  // graceful degradation, no event is lost in-process.
  virtual bool append_section(EventId first_id, size_t count,
                              std::span<const uint8_t> entries,
                              std::span<const uint8_t> names) = 0;
  // Sticky terminal-failure latch: once true, every future append_section
  // returns false and compact() stops serializing (the sink's existing
  // events stay replayable).
  virtual bool failed() const { return false; }
  // Streams events [0, events()) in id order; `fn` returns false to stop.
  virtual void replay_raw(
      const std::function<bool(const EventView&)>& fn) const = 0;
  // Events held (contiguous id range [0, events())).
  virtual size_t events() const = 0;
  // On-disk footprint in bytes (file headers and chunk framing included).
  virtual size_t bytes() const = 0;
};

class EventLog {
 public:
  EventLog() {
    // Own a private catalog until (unless) an engine attach()es its own,
    // so names() is a plain dereference — never a lazy const mutation.
    own_names_ = std::make_unique<ndlog::Catalog>();
    names_ = own_names_.get();
  }
  EventLog(EventLog&&) = default;
  EventLog& operator=(EventLog&&) = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Uses `catalog` as the table-name space (the owning engine's), so
  // TableIds inside TupleRefs match the engine's ids. Must be called
  // before the first append. Without attach() the log uses its own
  // private catalog (standalone logs: checkpoint decoding, tests).
  void attach(ndlog::Catalog* catalog) { names_ = catalog; }

  TuplePool& pool() { return pool_; }
  const TuplePool& pool() const { return pool_; }

  // --- interning --------------------------------------------------------
  RuleId intern_rule(const std::string& name);
  // The id of an interned rule name, or kNoRule.
  RuleId find_rule(const std::string& name) const {
    auto it = rule_ids_.find(name);
    return it == rule_ids_.end() ? kNoRule : it->second;
  }
  const std::string& rule_name(RuleId id) const {
    static const std::string kEmpty;
    return id == kNoRule ? kEmpty : rule_names_[id];
  }
  // Interns an event-location Value to a dense handle. Two-entry cache:
  // the append hot path alternates between at most two nodes for long
  // external runs (a homogeneous stream's source location and the rule
  // head's destination), so the common case is a Value equality compare,
  // not a hash. Two entries, not one — a single entry thrashes on every
  // source -> destination transition within one insert's cascade.
  NodeRef intern_node(const Value& node) {
    if (node_cache_ref_ != kNoNode && node_values_[node_cache_ref_] == node) {
      return node_cache_ref_;
    }
    if (node_cache_ref2_ != kNoNode &&
        node_values_[node_cache_ref2_] == node) {
      std::swap(node_cache_ref_, node_cache_ref2_);  // keep MRU first
      return node_cache_ref_;
    }
    auto [it, inserted] =
        node_ids_.try_emplace(node, static_cast<NodeRef>(node_values_.size()));
    if (inserted) node_values_.push_back(node);
    node_cache_ref2_ = node_cache_ref_;
    node_cache_ref_ = it->second;
    return it->second;
  }
  const Value& node_value(NodeRef id) const {
    static const Value kNone;
    return id == kNoNode ? kNone : node_values_[id];
  }
  TupleRef intern_tuple(const std::string& table, const Row& row) {
    return pool_.intern(names().intern(table), row);
  }
  TupleRef intern_tuple(const Tuple& t) { return intern_tuple(t.table, t.row); }
  // Lookup without insertion (const contexts); kNoTupleRef when the tuple
  // was never recorded.
  TupleRef find_ref(const Tuple& t) const;

  // --- append (hot path) ------------------------------------------------
  // Primary form: every handle pre-interned, inline so the 32-byte record
  // build fuses into the caller. `tuple` must be a handle from this log's
  // pool, `node` from intern_node(); `causes` is copied into the cause
  // arena. No allocation beyond amortized arena growth.
  EventId append(EventKind kind, NodeRef node, TupleRef tuple, TagMask tags,
                 std::span<const EventId> causes = {}, RuleId rule = kNoRule) {
    // ncauses is 8 bits wide; nothing the runtime produces comes close
    // (causes per event = rule body size or 1), so cap instead of
    // recording a mod-256 count that would silently drop causal edges.
    assert(causes.size() <= 0xff);
    if (causes.size() > 0xff) causes = causes.first(0xff);
    assert(rule == kNoRule || rule < kNoRule);
    // Arena offsets are u32 (drop_live_prefix rebases them toward 0).
    assert(cause_arena_.size() + causes.size() <= UINT32_MAX);
    const EventId id = size();
    // Build the record in registers and push it in one store: emplace_back()
    // followed by field-at-a-time writes costs a zero-init plus scattered
    // stores into freshly grown heap memory on this 40%-of-profile path.
    Event e;
    e.id = id;
    e.tags = tags;
    e.causes_begin = static_cast<uint32_t>(cause_arena_.size());
    e.node = node;
    e.tuple = tuple;
    e.rule = static_cast<uint16_t>(rule);
    e.ncauses = static_cast<uint8_t>(causes.size());
    e.kind = kind;
    events_.push_back(e);
    cause_arena_.insert(cause_arena_.end(), causes.begin(), causes.end());
    return id;
  }
  // Value-node form (interns the location first).
  EventId append(EventKind kind, const Value& node, TupleRef tuple,
                 TagMask tags, std::span<const EventId> causes = {},
                 RuleId rule = kNoRule) {
    return append(kind, intern_node(node), tuple, tags, causes, rule);
  }
  // Materialized variant (replay, tests): interns the tuple (and
  // rule name) first.
  EventId append(EventKind kind, const Value& node, const Tuple& tuple,
                 TagMask tags, const std::vector<EventId>& causes = {},
                 const std::string& rule = {});

  // Appends a derivation record; `body` is copied into the body arena.
  // body[i] corresponds to rule.body[i]. Returns the record index.
  size_t add_derivation(RuleId rule, TupleRef head,
                        std::span<const TupleRef> body, EventId derive_event,
                        bool live = true);

  // --- access -----------------------------------------------------------
  // Live (un-compacted) suffix of the log; events()[i] has id base_id()+i.
  const std::deque<Event>& events() const { return events_; }
  // Valid only for live ids (id >= base_id()); compacted events are
  // reachable through for_each_event() / event_time().
  const Event& event(EventId id) const {
    assert(id >= base_id_ && id - base_id_ < events_.size());
    return events_[id - base_id_];
  }

  // Handle resolution.
  const Row& row_of(TupleRef r) const { return pool_.row(r); }
  TableId table_of(TupleRef r) const { return pool_.table(r); }
  const std::string& table_name(TupleRef r) const {
    return names().name_of(pool_.table(r));
  }
  Tuple materialize(TupleRef r) const {
    return Tuple{table_name(r), pool_.row(r)};
  }
  Tuple tuple_of(const Event& e) const { return materialize(e.tuple); }

  const std::vector<DerivRecord>& derivations() const { return derivations_; }
  DerivRecord& derivation(size_t idx) { return derivations_[idx]; }
  std::span<const TupleRef> body_of(const DerivRecord& rec) const {
    return {body_arena_.data() + rec.body_begin, rec.nbody};
  }
  Tuple head_of(const DerivRecord& rec) const { return materialize(rec.head); }

  // Indices of live derivation records whose head equals `t`.
  std::vector<size_t> derivations_of(TupleRef t) const;
  std::vector<size_t> derivations_of(const Tuple& t) const {
    return derivations_of(find_ref(t));
  }
  // Indices of live derivation records with `t` among their body tuples.
  std::vector<size_t> derivations_using(TupleRef t) const;
  std::vector<size_t> derivations_using(const Tuple& t) const {
    return derivations_using(find_ref(t));
  }
  // Visit indices of live records in insertion order; `fn` returns false
  // to stop. Templated so hot callers (retract cascades) pay no
  // std::function wrapping per call. The chains are stored newest-first
  // (see DerivRecord::prev_same_head), so visitation collects the chain
  // and reverses — a per-call vector on the cold query path bought the
  // append path its missing cache line.
  template <typename Fn>
  void for_each_derivation_of(TupleRef t, Fn&& fn) const {
    constexpr uint32_t kNone = ~uint32_t{0};
    if (t == kNoTupleRef || t >= head_index_.size()) return;
    std::vector<uint32_t> chain;
    for (uint32_t idx = head_index_[t]; idx != kNone;
         idx = derivations_[idx].prev_same_head) {
      chain.push_back(idx);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (derivations_[*it].live && !fn(static_cast<size_t>(*it))) return;
    }
  }
  template <typename Fn>
  void for_each_derivation_using(TupleRef t, Fn&& fn) const {
    constexpr uint32_t kNone = ~uint32_t{0};
    if (t == kNoTupleRef || t >= body_index_.size()) return;
    std::vector<uint32_t> chain;
    for (uint32_t pos = body_index_[t]; pos != kNone;
         pos = body_links_[pos].prev) {
      chain.push_back(body_links_[pos].record);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (derivations_[*it].live && !fn(static_cast<size_t>(*it))) return;
    }
  }
  bool has_derivation_of(TupleRef t) const;
  bool has_derivation_of(const Tuple& t) const {
    return has_derivation_of(find_ref(t));
  }

  // Logical clock: times are assigned densely in append order, so the
  // current time is simply the event count.
  Time now() const { return size(); }

  // --- checkpoint + truncate (event-log compaction, Section 5.4) -------
  // Serializes all but the newest `keep_live` live events into one section
  // for the attached CheckpointSink and erases their Event structs.
  // Returns the number of events compacted: 0, with every event left live
  // and nothing serialized, when no sink is attached or the sink has
  // latched failed(); also 0 for the events of a section the sink
  // rejects. Compaction stops early at the first event that exceeds the
  // format's u16 fields (a >64 KiB string, >65535 row values / causes, or
  // a table/rule id >= 0xffff — nothing the runtime produces): such an
  // event and everything after it stay live rather than corrupting the
  // decode. Derivation records (and the TuplePool) are unaffected;
  // derive_event ids remain resolvable via event_time().
  size_t compact(size_t keep_live = 0);
  EventId base_id() const { return base_id_; }
  size_t live_size() const { return events_.size(); }
  // Timestamp of any event, live or checkpointed: times are assigned
  // densely in append order, so this is id + 1.
  Time event_time(EventId id) const { return id + 1; }

  // Walks the full event sequence in id order as EventViews: the spilled
  // prefix straight from the sink's replay_raw, then the live suffix.
  // Each view (its causes included) is valid only for the duration of
  // the call; nested walks each hold their own, so a view survives a
  // complete inner walk (pinned by history_test).
  void for_each_event(const std::function<void(const EventView&)>& fn) const;

  // Attaches (or detaches, with nullptr) the checkpoint sink. Live events
  // the sink already holds (recovery continuation: the caller replayed
  // the sink into this engine, then attached it) are dropped from RAM as
  // already-durable. The sink must outlive the log (or be detached
  // first).
  void set_spill(CheckpointSink* sink);
  CheckpointSink* spill() const { return spill_; }

  // Exact size of `e`'s entry in the serialized checkpoint format (header
  // + row values + cause ids; names and node values are accounted
  // separately, once per distinct id). byte_estimate() sums this over the
  // live events plus the name records.
  size_t serialized_bytes(const Event& e) const;

  // On-disk footprint of the log in the serialized format: the sink's
  // bytes (exact, file headers and chunk framing included) plus what
  // compacting the live suffix in one section would add in entry +
  // name-record payload (computed on demand — it's a cold accessor, and
  // append stays free of accounting work).
  size_t byte_estimate() const;
  // Total events ever appended (compacted + live); ids are dense in
  // [0, size()).
  size_t size() const { return base_id_ + events_.size(); }
  void clear();

 private:
  ndlog::Catalog& names() { return *names_; }
  const ndlog::Catalog& names() const { return *names_; }
  bool fits_checkpoint_format(const Event& e) const;
  void serialize(const Event& e, std::vector<uint8_t>& out) const;
  // A live event's causal predecessors: its run in the cause arena.
  std::span<const EventId> arena_causes(const Event& e) const {
    return {cause_arena_.data() + e.causes_begin, e.ncauses};
  }
  // Erases the oldest `n` live Event structs (after they became durable)
  // and drops the cause-arena prefix they owned.
  void drop_live_prefix(size_t n);

  ndlog::Catalog* names_ = nullptr;  // attached or own_names_.get()
  std::unique_ptr<ndlog::Catalog> own_names_;
  TuplePool pool_;
  std::vector<std::string> rule_names_;
  std::unordered_map<std::string, RuleId> rule_ids_;
  // Node interner (intern_node / node_value). A deque: node_value() hands
  // out references that must survive later interns. Like the pool and the
  // rule interner, never truncated — NodeRefs inside checkpointed entries
  // stay resolvable forever.
  std::deque<Value> node_values_;
  std::unordered_map<Value, NodeRef, ValueHash> node_ids_;
  NodeRef node_cache_ref_ = kNoNode;
  NodeRef node_cache_ref2_ = kNoNode;

  std::deque<Event> events_;  // live suffix; events_[i].id == base_id_ + i
  // Cause arena: every event's causes are one contiguous run, addressed by
  // arena-relative u32 offsets. Compaction drops the prefix below the
  // first live event and rebases the live offsets back to 0
  // (drop_live_prefix).
  std::vector<EventId> cause_arena_;
  std::vector<DerivRecord> derivations_;
  std::vector<TupleRef> body_arena_;  // DerivRecord body refs
  // Derivation indexes addressed directly by the dense TupleRef (the pool
  // hands out ids contiguously): lookup is an array load, not a hash.
  // Both are intrusive chains linked newest-first — the per-ref entry
  // holds the NEWEST record, each record points at its predecessor — so
  // appending a derivation writes only the chain head and the record
  // being pushed (both hot), never the cold previous tail. Readers
  // reverse at visitation (for_each_derivation_of/_using).
  struct BodyLink {
    uint32_t record = ~uint32_t{0};  // derivation index of this occurrence
    uint32_t prev = ~uint32_t{0};    // previous body_links_ pos, same ref
  };
  std::vector<uint32_t> head_index_;       // by head TupleRef: newest record
  std::vector<uint32_t> body_index_;       // by body TupleRef: newest link
  std::vector<BodyLink> body_links_;       // parallel to body_arena_

  CheckpointSink* spill_ = nullptr;
  EventId base_id_ = 0;
};

}  // namespace mp::eval
