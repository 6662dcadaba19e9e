// TuplePool: per-engine interned tuple storage (the provenance fast path).
//
// Provenance recording used to copy a full Tuple (heap-owning table string
// + Row vector) into every Event, DerivRecord head/body slot and history
// entry. The pool stores each distinct (table, row) pair exactly once and
// hands out a 32-bit TupleRef; the slot keeps the dense TableId and the
// precomputed hash, so
//   - appending an event is a handle store, not a Tuple copy,
//   - equality anywhere downstream (history dedup, derivation-index
//     lookups) is a handle compare,
//   - the hash is computed once per distinct tuple, ever.
//
// Slots live in a deque so Row references stay stable forever: handles are
// never invalidated — not by pool growth, not by EventLog compaction
// (which drops Event structs but leaves the pool alone). The pool is
// append-only; it holds exactly the distinct-tuple set the HistoryStore
// needs anyway, so the marginal memory over the pre-pool layout is
// negative (events/derivations now share what history already stored).
//
// Dedup is an open-addressed index over the slots (refs + precomputed
// hashes, no keys duplicated). TableIds are whatever id space the owner
// uses — the engine's catalog ids, or a standalone EventLog's private
// catalog (see EventLog::attach); handles from different pools are not
// comparable.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "eval/tuple.h"
#include "ndlog/schema.h"

namespace mp::eval {

// Same alias eval/plan.h declares (redeclaration of an identical alias is
// well-formed); event_log.h only needs this header.
using TableId = ndlog::Catalog::TableId;

using TupleRef = uint32_t;
inline constexpr TupleRef kNoTupleRef = ~TupleRef{0};

class TuplePool {
 public:

  // Interns (table, row); returns the existing handle if already present.
  TupleRef intern(TableId table, const Row& row);
  TupleRef intern(TableId table, Row&& row);
  // Lookup without insertion; kNoTupleRef when absent.
  TupleRef find(TableId table, const Row& row) const;

  TableId table(TupleRef r) const { return slots_[r].table; }
  const Row& row(TupleRef r) const { return slots_[r].row; }
  size_t hash(TupleRef r) const { return slots_[r].hash; }

  // Number of distinct tuples interned; refs are dense in [0, size()).
  size_t size() const { return slots_.size(); }
  void clear();

 private:
  struct Slot {
    Row row;
    size_t hash = 0;
    TableId table = 0;
  };

  static size_t key_hash(TableId table, const Row& row) {
    return hash_combine(0x9e3779b97f4a7c15ULL ^ table, hash_row(row));
  }
  // Probe for (table, row, h); returns the matching ref or the first empty
  // bucket index encoded as kNoTupleRef via `bucket_out`.
  TupleRef probe(TableId table, const Row& row, size_t h,
                 size_t* bucket_out) const;
  // Appends the slot and fills the probed bucket (shared intern tail).
  TupleRef insert_slot(size_t bucket, size_t h, TableId table, Row&& row);
  void grow();

  std::deque<Slot> slots_;         // ref -> slot; deque: rows stay stable
  std::vector<uint32_t> buckets_;  // open addressing; ref + 1, 0 = empty
  size_t mask_ = 0;                // buckets_.size() - 1 (power of two)
};

}  // namespace mp::eval
