#include "eval/database.h"

#include <algorithm>

namespace mp::eval {

uint32_t TableStore::lookup_slot(TupleRef ref) const {
  if (map_count_ == 0 || ref == kNoTupleRef) return kNoSlot;
  size_t b = ref_bucket(ref, map_mask_);
  while (map_[b].first != 0) {
    if (map_[b].first == ref + 1) return map_[b].second;
    b = (b + 1) & map_mask_;
  }
  return kNoSlot;
}

void TableStore::map_grow() {
  const size_t cap = map_.empty() ? 16 : map_.size() * 2;
  std::vector<std::pair<uint32_t, uint32_t>> old = std::move(map_);
  map_.assign(cap, {0, 0});
  map_mask_ = cap - 1;
  for (const auto& [key, slot] : old) {
    if (key == 0) continue;
    size_t b = ref_bucket(key - 1, map_mask_);
    while (map_[b].first != 0) b = (b + 1) & map_mask_;
    map_[b] = {key, slot};
  }
}

void TableStore::map_put(TupleRef ref, uint32_t slot) {
  if ((map_count_ + 1) * 2 > map_.size()) map_grow();
  size_t b = ref_bucket(ref, map_mask_);
  while (map_[b].first != 0) b = (b + 1) & map_mask_;
  map_[b] = {ref + 1, slot};
  ++map_count_;
}

void TableStore::map_erase(TupleRef ref) {
  size_t b = ref_bucket(ref, map_mask_);
  while (map_[b].first != ref + 1) {
    if (map_[b].first == 0) return;  // absent
    b = (b + 1) & map_mask_;
  }
  // Backward-shift deletion: pull every displaced follower of the probe
  // chain into the hole so lookups never need tombstones.
  size_t hole = b;
  size_t i = (b + 1) & map_mask_;
  while (map_[i].first != 0) {
    const size_t home = ref_bucket(map_[i].first - 1, map_mask_);
    if (((i - home) & map_mask_) >= ((i - hole) & map_mask_)) {
      map_[hole] = map_[i];
      hole = i;
    }
    i = (i + 1) & map_mask_;
  }
  map_[hole] = {0, 0};
  --map_count_;
}

Entry& TableStore::insert_ref(TupleRef ref) {
  assert(ref != kNoTupleRef);
  const uint32_t existing = lookup_slot(ref);
  if (existing != kNoSlot) return entries_[existing];
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    entries_[slot] = Entry{};
    slot_refs_[slot] = ref;
  } else {
    slot = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
    slot_refs_.push_back(ref);
  }
  entries_[slot].ref = ref;
  map_put(ref, slot);
  ++live_;
  if (index_specs_ != nullptr) add_to_indexes(slot);
  return entries_[slot];
}

void TableStore::erase_ref(TupleRef ref) {
  const uint32_t slot = lookup_slot(ref);
  if (slot == kNoSlot) return;
  if (index_specs_ != nullptr) remove_from_indexes(slot);
  map_erase(ref);
  slot_refs_[slot] = kNoTupleRef;
  free_slots_.push_back(slot);
  --live_;
}

void TableStore::add_to_indexes(uint32_t slot) {
  const Row& row = pool_->row(slot_refs_[slot]);
  Row key;
  for (size_t i = 0; i < index_specs_->size(); ++i) {
    if (!project_key(row, (*index_specs_)[i], key)) continue;
    indexes_[i][std::move(key)].push_back(slot);
    key = Row();  // moved-from: make reuse explicit
  }
}

void TableStore::remove_from_indexes(uint32_t slot) {
  const Row& row = pool_->row(slot_refs_[slot]);
  Row key;
  for (size_t i = 0; i < index_specs_->size(); ++i) {
    if (!project_key(row, (*index_specs_)[i], key)) continue;
    auto bit = indexes_[i].find(key);
    if (bit == indexes_[i].end()) continue;
    Bucket& bucket = bit->second;
    auto pos = std::find(bucket.begin(), bucket.end(), slot);
    if (pos != bucket.end()) {
      *pos = bucket.back();
      bucket.pop_back();
    }
    if (bucket.empty()) indexes_[i].erase(bit);
  }
}

TableStore& Database::store(TableId id) {
  if (id >= stores_.size()) stores_.resize(id + 1);
  auto& slot = stores_[id];
  if (slot == nullptr) {
    slot = std::make_unique<TableStore>();
    slot->attach(pool_, id);
    if (specs_ != nullptr) slot->configure_indexes(specs_->for_table(id));
  }
  return *slot;
}

std::vector<Row> Database::rows(const std::string& table) const {
  if (catalog_ == nullptr) return {};
  const TableId id = catalog_->id_of(table);
  if (id == ndlog::Catalog::kNoTable) return {};
  return rows(id);
}

std::vector<Row> Database::rows(TableId id) const {
  std::vector<Row> out;
  const TableStore* t = store_if(id);
  if (t == nullptr) return out;
  for (uint32_t slot = 0; slot < t->slot_count(); ++slot) {
    if (t->ref_at(slot) == kNoTupleRef) continue;
    if (t->entry_at(slot).support > 0) out.push_back(t->row_at(slot));
  }
  return out;
}

size_t Database::tuple_count() const {
  size_t n = 0;
  for (const auto& t : stores_) {
    if (t == nullptr) continue;
    for (uint32_t slot = 0; slot < t->slot_count(); ++slot) {
      if (t->ref_at(slot) == kNoTupleRef) continue;
      if (t->entry_at(slot).support > 0) ++n;
    }
  }
  return n;
}

}  // namespace mp::eval
