// Per-node storage for materialized tables: rows with derivation-support
// counts, candidate-tag masks, primary-key replacement semantics, and
// secondary hash indexes on the column sets that compiled rule plans
// probe at join time.
//
// Storage is keyed by TupleRef, not by Row: every stored row is interned
// in the engine's TuplePool (unconditionally — provenance on or off), so
// the appearance hot path replaces a Row hash + unordered_map probe with
// the pool's once-per-distinct-tuple hash and a u32 open-addressed ref ->
// slot lookup. Entries live in a contiguous slot vector (struct-of-slots
// layout: the Entry columns the join loop reads are one array load apart,
// and the per-slot TupleRef doubles as the tombstone mark), so full scans
// and index buckets walk dense u32 slots instead of chasing
// unordered_map nodes. Rows materialize through the pool (row_at), whose
// slots are stable forever — a Row reference obtained from a store
// survives erase() of the entry that produced it.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/plan.h"
#include "eval/tuple.h"
#include "eval/tuple_pool.h"
#include "ndlog/schema.h"

namespace mp::eval {

struct Entry {
  int support = 0;        // number of live derivations (base insert counts 1)
  TagMask tags = 0;       // candidate worlds in which the row exists
  uint64_t appear_event = 0;  // event id of the most recent appearance
  // Interned handle for this (table, row) in the engine's TuplePool; the
  // slot's identity. Always set (interning is unconditional), so the join
  // path records body provenance and the retract path cascades without
  // ever re-hashing a row.
  TupleRef ref = kNoTupleRef;
};

class TableStore {
 public:
  using Bucket = std::vector<uint32_t>;  // slot indices into the store

  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  // Wires the store to the engine's pool and its own dense table id; must
  // be called before the first insert. Both outlive the store.
  void attach(TuplePool* pool, TableId table) {
    pool_ = pool;
    table_ = table;
  }

  // Wires up the secondary indexes this table maintains; `specs` (owned by
  // the engine, same lifetime) lists one sorted column set per index. Must
  // be called before rows are inserted (stores are created empty).
  void configure_indexes(const std::vector<std::vector<uint32_t>>* specs) {
    index_specs_ = specs;
    if (specs != nullptr) indexes_.resize(specs->size());
  }

  // --- ref-keyed hot path ----------------------------------------------
  Entry* find_ref(TupleRef ref) {
    const uint32_t slot = lookup_slot(ref);
    return slot == kNoSlot ? nullptr : &entries_[slot];
  }
  const Entry* find_ref(TupleRef ref) const {
    const uint32_t slot = lookup_slot(ref);
    return slot == kNoSlot ? nullptr : &entries_[slot];
  }
  // Creates the entry (support 0, ref filled in) if absent. The returned
  // reference is invalidated by the next insert into this store — hold it
  // only across entry mutation, never across dispatch.
  Entry& insert_ref(TupleRef ref);
  void erase_ref(TupleRef ref);

  // --- row-keyed convenience (cold callers; resolve through the pool) ---
  Entry* find(const Row& row) {
    return find_ref(pool_->find(table_, row));
  }
  const Entry* find(const Row& row) const {
    return find_ref(pool_->find(table_, row));
  }
  Entry& insert(const Row& row) { return insert_ref(pool_->intern(table_, row)); }
  void erase(const Row& row) {
    const TupleRef ref = pool_->find(table_, row);
    if (ref != kNoTupleRef) erase_ref(ref);
  }

  // --- slot iteration ---------------------------------------------------
  // Slots are assigned in insertion order and reused after erase;
  // ref_at() == kNoTupleRef marks a free slot (skip it).
  uint32_t slot_count() const { return static_cast<uint32_t>(slot_refs_.size()); }
  TupleRef ref_at(uint32_t slot) const { return slot_refs_[slot]; }
  const Row& row_at(uint32_t slot) const { return pool_->row(slot_refs_[slot]); }
  const Entry& entry_at(uint32_t slot) const { return entries_[slot]; }
  Entry& entry_at(uint32_t slot) { return entries_[slot]; }
  size_t size() const { return live_; }

  // Slots whose row's projection onto index `index_id`'s columns equals
  // `key`; nullptr when the bucket is empty. Every secondary index is
  // updated as its row is inserted or erased, so a probe always sees the
  // current slots.
  const Bucket* probe(size_t index_id, const Row& key) const {
    const auto& ix = indexes_[index_id];
    auto it = ix.find(key);
    return it == ix.end() ? nullptr : &it->second;
  }

  // Key index support: handle of the currently stored row with the given
  // primary key, kNoTupleRef if none (used for key-replacement updates).
  TupleRef ref_with_key(const Row& key) const {
    auto it = key_index_.find(key);
    return it == key_index_.end() ? kNoTupleRef : it->second;
  }
  void index_key(const Row& key, TupleRef ref) { key_index_[key] = ref; }
  void unindex_key(const Row& key) { key_index_.erase(key); }

 private:
  void add_to_indexes(uint32_t slot);
  void remove_from_indexes(uint32_t slot);

  // Open-addressed ref -> slot map, following the TuplePool bucket idiom:
  // buckets hold (ref + 1, slot) with 0 = empty, power-of-two capacity,
  // linear probing, backward-shift deletion (no tombstones).
  static size_t ref_bucket(TupleRef ref, size_t mask) {
    return (ref * size_t{2654435761u}) & mask;
  }
  uint32_t lookup_slot(TupleRef ref) const;
  void map_put(TupleRef ref, uint32_t slot);
  void map_erase(TupleRef ref);
  void map_grow();

  TuplePool* pool_ = nullptr;
  TableId table_ = 0;
  std::vector<Entry> entries_;       // slot -> entry, contiguous
  std::vector<TupleRef> slot_refs_;  // slot -> ref; kNoTupleRef = free slot
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> map_;  // (ref + 1, slot)
  size_t map_mask_ = 0;  // map_.size() - 1 (power of two), 0 when empty
  size_t map_count_ = 0;

  const std::vector<std::vector<uint32_t>>* index_specs_ = nullptr;
  std::vector<std::unordered_map<Row, Bucket, RowHash>> indexes_;
  std::unordered_map<Row, TupleRef, RowHash> key_index_;
};

// All materialized state of one simulated node. Stores are keyed by the
// catalog's dense TableId on the hot path; the string-keyed API remains
// for external consumers (scenarios, provenance, tests) and is const-only
// so a lookup can never create an empty store as a side effect.
class Database {
 public:
  // Called by the engine when the node first appears. The catalog maps
  // names to ids; the specs say which secondary indexes each new store
  // must maintain; the pool interns every stored row. All outlive the
  // database.
  void init(const ndlog::Catalog* catalog, const IndexSpecs* specs,
            TuplePool* pool) {
    catalog_ = catalog;
    specs_ = specs;
    pool_ = pool;
  }

  // Store for `id`, created (attached and indexes configured) on first use.
  TableStore& store(TableId id);
  // Existing store or nullptr; never creates.
  TableStore* store_if(TableId id) {
    return id < stores_.size() ? stores_[id].get() : nullptr;
  }
  const TableStore* store_if(TableId id) const {
    return id < stores_.size() ? stores_[id].get() : nullptr;
  }

  const TableStore* table(const std::string& name) const {
    if (catalog_ == nullptr) return nullptr;
    const TableId id = catalog_->id_of(name);
    return id == ndlog::Catalog::kNoTable ? nullptr : store_if(id);
  }
  bool exists(const std::string& table, const Row& row) const {
    const TableStore* t = this->table(table);
    if (t == nullptr) return false;
    const Entry* e = t->find(row);
    return e != nullptr && e->support > 0;
  }
  std::vector<Row> rows(const std::string& table) const;
  std::vector<Row> rows(TableId id) const;
  size_t tuple_count() const;

 private:
  const ndlog::Catalog* catalog_ = nullptr;
  const IndexSpecs* specs_ = nullptr;
  TuplePool* pool_ = nullptr;
  std::vector<std::unique_ptr<TableStore>> stores_;
};

}  // namespace mp::eval
