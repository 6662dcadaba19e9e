#include "eval/event_log.h"

#include <cstddef>
#include <string_view>

#include "eval/ckpt_format.h"

namespace mp::eval {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::Insert: return "INSERT";
    case EventKind::Delete: return "DELETE";
    case EventKind::Derive: return "DERIVE";
    case EventKind::Underive: return "UNDERIVE";
    case EventKind::Appear: return "APPEAR";
    case EventKind::Disappear: return "DISAPPEAR";
    case EventKind::Send: return "SEND";
    case EventKind::Receive: return "RECEIVE";
  }
  return "?";
}

std::string to_string(const EventView& e) {
  std::string out = to_string(e.kind);
  out += "(t=" + std::to_string(e.id + 1) + ", @" + e.node->to_string() +
         ", ";
  out += e.table;
  out += row_to_string(*e.row);
  if (!e.rule.empty()) {
    out += ", rule=";
    out += e.rule;
  }
  out += ")";
  return out;
}

RuleId EventLog::intern_rule(const std::string& name) {
  // Event::rule is 16 bits; kNoRule (0xffff) is the sentinel above the
  // usable id space. No program comes near 65534 rules.
  assert(rule_names_.size() < kNoRule);
  auto [it, inserted] =
      rule_ids_.try_emplace(name, static_cast<RuleId>(rule_names_.size()));
  if (inserted) rule_names_.push_back(name);
  return it->second;
}

TupleRef EventLog::find_ref(const Tuple& t) const {
  const TableId tid = names().id_of(t.table);
  if (tid == ndlog::Catalog::kNoTable) return kNoTupleRef;
  return pool_.find(tid, t.row);
}

EventId EventLog::append(EventKind kind, const Value& node, const Tuple& tuple,
                         TagMask tags, const std::vector<EventId>& causes,
                         const std::string& rule) {
  return append(kind, node, intern_tuple(tuple), tags,
                std::span<const EventId>(causes),
                rule.empty() ? kNoRule : intern_rule(rule));
}

size_t EventLog::add_derivation(RuleId rule, TupleRef head,
                                std::span<const TupleRef> body,
                                EventId derive_event, bool live) {
  const size_t idx = derivations_.size();
  DerivRecord rec;
  rec.derive_event = derive_event;
  rec.rule = rule;
  rec.head = head;
  rec.body_begin = body_arena_.size();
  rec.nbody = static_cast<uint16_t>(body.size());
  rec.live = live;
  // kNoTupleRef positions (provenance-off merges) carry no provenance and
  // are never looked up; indexing them would blow the dense arrays up to
  // the sentinel.
  // Chains link newest-first: the record being pushed takes the old chain
  // head as its predecessor and becomes the new head. Both stores hit hot
  // memory (this record, the per-ref head slot); the old forward-linked
  // layout wrote a next-pointer into the cold previous tail record — a
  // guaranteed cache miss per derivation on the recording hot path.
  constexpr uint32_t kNone = ~uint32_t{0};
  const uint32_t idx32 = static_cast<uint32_t>(idx);
  if (head != kNoTupleRef) {
    if (head >= head_index_.size()) head_index_.resize(head + 1, kNone);
    rec.prev_same_head = head_index_[head];
    head_index_[head] = idx32;
  }
  for (TupleRef b : body) {
    const uint32_t pos = static_cast<uint32_t>(body_links_.size());
    if (b == kNoTupleRef) {
      body_links_.push_back(BodyLink{idx32, kNone});
      continue;
    }
    if (b >= body_index_.size()) body_index_.resize(b + 1, kNone);
    body_links_.push_back(BodyLink{idx32, body_index_[b]});
    body_index_[b] = pos;
  }
  body_arena_.insert(body_arena_.end(), body.begin(), body.end());
  derivations_.push_back(rec);
  return idx;
}

std::vector<size_t> EventLog::derivations_of(TupleRef t) const {
  std::vector<size_t> out;
  for_each_derivation_of(t, [&](size_t idx) {
    out.push_back(idx);
    return true;
  });
  return out;
}

std::vector<size_t> EventLog::derivations_using(TupleRef t) const {
  std::vector<size_t> out;
  for_each_derivation_using(t, [&](size_t idx) {
    out.push_back(idx);
    return true;
  });
  return out;
}

bool EventLog::has_derivation_of(TupleRef t) const {
  bool any = false;
  for_each_derivation_of(t, [&](size_t) {
    any = true;
    return false;
  });
  return any;
}

// --- serialization ------------------------------------------------------
// Byte layout lives in eval/ckpt_format.h, shared with the segment reader
// (src/storage) that decodes every spilled section.

namespace {

// True exactly once per id: grows `seen` on demand and records the id.
// Shared by compact() (write the name record) and byte_estimate()
// (account its size) so the string-table first-reference rule lives in
// one place.
bool first_ref(std::vector<uint8_t>& seen, uint32_t id) {
  if (id >= seen.size()) seen.resize(id + 1, 0);
  if (seen[id]) return false;
  seen[id] = 1;
  return true;
}

void write_name_record(std::vector<uint8_t>& out, uint8_t kind, uint16_t id,
                       const std::string& name) {
  out.push_back(kind);
  ckpt::put_u16(out, id);
  ckpt::put_u16(out, static_cast<uint16_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
}

void write_node_record(std::vector<uint8_t>& out, uint16_t id,
                       const Value& node) {
  out.push_back(ckpt::kNameNode);
  ckpt::put_u16(out, id);
  ckpt::put_value(out, node);
}

}  // namespace

size_t EventLog::serialized_bytes(const Event& e) const {
  size_t sz = ckpt::kHeaderBytes + 8 * e.ncauses;
  for (const Value& v : pool_.row(e.tuple)) sz += ckpt::value_bytes(v);
  return sz;
}

void EventLog::serialize(const Event& e, std::vector<uint8_t>& out) const {
  const TableId tid = pool_.table(e.tuple);
  const Row& row = pool_.row(e.tuple);
  // v2 layout: no time field — the reader derives the id (and so the
  // time, id + 1) from the entry's position; see eval/ckpt_format.h.
  ckpt::put_u64(out, e.tags);
  out.push_back(static_cast<uint8_t>(e.kind));
  out.push_back(e.ncauses);
  ckpt::put_u16(out, static_cast<uint16_t>(tid));
  ckpt::put_u16(out, e.rule);  // u16 id space; kNoRule == kNoRuleSerialized
  ckpt::put_u16(out, static_cast<uint16_t>(row.size()));
  ckpt::put_u16(out, static_cast<uint16_t>(e.node));
  ckpt::put_u32(out,
                static_cast<uint32_t>(serialized_bytes(e) - ckpt::kHeaderBytes));
  for (const Value& v : row) ckpt::put_value(out, v);
  for (EventId c : arena_causes(e)) ckpt::put_u64(out, c);
}

bool EventLog::fits_checkpoint_format(const Event& e) const {
  // Every length/id the entry header stores is a u16 (ncauses a u8, which
  // Event::ncauses already is); an event exceeding one (nothing the
  // runtime produces) must stay live, not decode garbled.
  constexpr size_t kMax = 0xffff;
  const Row& row = pool_.row(e.tuple);
  if (pool_.table(e.tuple) >= kMax || row.size() > kMax) {
    return false;
  }
  if (e.rule != kNoRule && e.rule >= ckpt::kNoRuleSerialized) return false;
  if (e.node >= kMax) return false;
  const Value& node = node_value(e.node);
  if (node.is_str() && node.as_str().size() > kMax) return false;
  for (const Value& v : row) {
    if (v.is_str() && v.as_str().size() > kMax) return false;
  }
  return true;
}

size_t EventLog::compact(size_t keep_live) {
  // The sink is the only checkpoint home: without a usable one there is
  // nowhere to put events, so they stay live (durability is lost, never
  // events) and nothing is serialized.
  if (spill_ == nullptr || spill_->failed()) return 0;
  if (events_.size() <= keep_live) return 0;
  size_t n = events_.size() - keep_live;
  for (size_t i = 0; i < n; ++i) {
    if (!fits_checkpoint_format(events_[i])) {
      n = i;  // stop at the first non-conforming event
      break;
    }
  }
  if (n == 0) return 0;
  // Names are written to the section's string-table records once, on
  // first reference by any of its entries: each section decodes
  // standalone, so the sink may rotate segment files between any two.
  std::vector<uint8_t> table_written;  // by TableId
  std::vector<uint8_t> rule_written;   // by RuleId
  std::vector<uint8_t> node_written;   // by NodeRef
  std::vector<uint8_t> entries;
  std::vector<uint8_t> name_records;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = events_[i];
    const TableId tid = pool_.table(e.tuple);
    if (first_ref(table_written, tid)) {
      write_name_record(name_records, ckpt::kNameTable,
                        static_cast<uint16_t>(tid), names().name_of(tid));
    }
    if (e.rule != kNoRule && first_ref(rule_written, e.rule)) {
      write_name_record(name_records, ckpt::kNameRule,
                        static_cast<uint16_t>(e.rule), rule_names_[e.rule]);
    }
    if (first_ref(node_written, e.node)) {
      write_node_record(name_records, static_cast<uint16_t>(e.node),
                        node_value(e.node));
    }
    serialize(e, entries);
  }
  bool accepted = false;
  try {
    accepted = spill_->append_section(base_id_, n, entries, name_records);
  } catch (...) {
    // A fail-stop sink threw from its post-acceptance flush. Acceptance
    // means the bytes entered the sink (they count toward its events()
    // and replay from its retained buffer), so reconcile — drop the
    // now-sink-held prefix — before letting the error surface; a
    // pre-acceptance throw leaves the events live.
    if (spill_->events() >= base_id_ + n) drop_live_prefix(n);
    throw;
  }
  // A rejected section (the sink degraded) stays live.
  if (!accepted) return 0;
  drop_live_prefix(n);
  return n;
}

void EventLog::drop_live_prefix(size_t n) {
  events_.erase(events_.begin(), events_.begin() + static_cast<ptrdiff_t>(n));
  base_id_ += n;
  // Rebase: erase the cause-arena prefix the erased events owned and shift
  // the live events' offsets back down to 0 (offsets are u32 and
  // arena-relative, so they never grow past the live arena size).
  const uint32_t cut = events_.empty()
                           ? static_cast<uint32_t>(cause_arena_.size())
                           : events_.front().causes_begin;
  if (cut == 0) return;
  cause_arena_.erase(cause_arena_.begin(),
                     cause_arena_.begin() + static_cast<ptrdiff_t>(cut));
  for (Event& e : events_) e.causes_begin -= cut;
}

size_t EventLog::byte_estimate() const {
  size_t total = spill_ != nullptr ? spill_->bytes() : 0;
  // Name records compacting the live suffix would add: the next compact
  // writes one self-contained section, so every referenced name counts.
  std::vector<uint8_t> tseen;
  std::vector<uint8_t> rseen;
  std::vector<uint8_t> nseen;
  for (const Event& e : events_) {
    total += serialized_bytes(e);
    const TableId tid = pool_.table(e.tuple);
    if (first_ref(tseen, tid)) {
      total += ckpt::name_record_bytes(names().name_of(tid));
    }
    if (e.rule != kNoRule && first_ref(rseen, e.rule)) {
      total += ckpt::name_record_bytes(rule_names_[e.rule]);
    }
    if (first_ref(nseen, e.node)) {
      total += 1 + 2 + ckpt::value_bytes(node_value(e.node));
    }
  }
  return total;
}

void EventLog::for_each_event(
    const std::function<void(const EventView&)>& fn) const {
  if (spill_ != nullptr) {
    spill_->replay_raw([&](const EventView& v) {
      fn(v);
      return true;
    });
  }
  EventView v;
  for (const Event& e : events_) {
    v.id = e.id;
    v.tags = e.tags;
    v.kind = e.kind;
    v.table = names().name_of(pool_.table(e.tuple));
    v.rule = rule_name(e.rule);
    v.node = &node_value(e.node);
    v.row = &pool_.row(e.tuple);
    v.causes = arena_causes(e);
    fn(v);
  }
}

void EventLog::set_spill(CheckpointSink* sink) {
  spill_ = sink;
  // Recovery continuation: the caller recovered `sink` from disk, replayed
  // it into this engine (re-interning every tuple), and is now attaching
  // it. Events the sink already holds durably are dropped from the live
  // suffix here — the in-RAM equivalent of compacting them, minus the
  // serialization that already happened in a previous life.
  if (sink != nullptr && sink->events() > base_id_) {
    const size_t durable = sink->events() - base_id_;
    assert(durable <= events_.size() &&
           "sink holds events this log never saw");
    drop_live_prefix(durable <= events_.size() ? durable : events_.size());
  }
}

void EventLog::clear() {
  events_.clear();
  cause_arena_.clear();
  derivations_.clear();
  body_arena_.clear();
  head_index_.clear();
  body_index_.clear();
  body_links_.clear();
  spill_ = nullptr;  // caller owns the sink (and its files)
  base_id_ = 0;
}

}  // namespace mp::eval
