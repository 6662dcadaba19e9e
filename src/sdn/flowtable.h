// Flow tables with wildcard matching, priorities and candidate-tag masks.
// A match on a field whose value is the wildcard "*" is skipped -- this is
// how the Q5 MAC-learning bug (too-coarse entries) is modelled.
//
// `FlowEntry` is the install-time form. `FlowTable::add` compiles it into a
// `FlowRule` and classifies by tuple-space search: one exact-match hash
// table per match shape (the set of fields a rule matches), with the rules
// that share a shape and key chained in rank order. A lookup hashes the
// packet once per shape and sweeps the hits in rank order. A lookup may
// also sweep a second table, `later`, whose rules rank as if installed
// after every rule of the first: a world's dynamic layer over the static
// layer it shares (sdn::WorldBase). See src/sdn/README.md for the contract
// and the memory layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/tuple.h"
#include "sdn/packet.h"

namespace mp::sdn {

struct Action {
  enum class Kind : uint8_t { Output, Drop };
  Kind kind = Kind::Drop;
  int64_t port = -1;

  static Action output(int64_t port) {
    return Action{Kind::Output, port};
  }
  static Action drop() { return Action{Kind::Drop, -1}; }
  std::string to_string() const {
    return kind == Kind::Drop ? "drop" : "output-" + std::to_string(port);
  }
};

struct MatchField {
  Field field = Field::Dpt;
  Value value;  // wildcard "*" matches anything
};

struct FlowEntry {
  std::vector<MatchField> match;
  int priority = 0;
  Action action;
  eval::TagMask tags = eval::kAllTags;

  bool matches(const Packet& p, int64_t in_port) const;
  std::string to_string() const;
};

// An installed entry as the table keeps it. Its exact-match values live in
// the owning table's arena, one int64 per bit of `fields`, in Field order.
struct FlowRule {
  eval::TagMask tags = eval::kAllTags;
  Action action;
  int priority = 0;
  uint32_t values = 0;  // arena offset of the match values
  uint32_t next = 0;    // next rule of the same shape and key, in rank order
  uint16_t fields = 0;  // bit f set: exact match on Field(f)
  bool never = false;   // a non-int or conflicting field: matches nothing
};

class FlowTable {
 public:
  void add(const FlowEntry& entry);
  // Highest-priority matching rule visible under `tag_bit`; ties resolve
  // to the earliest-installed rule (switch-like behaviour). The rules of
  // `later`, when given, rank as if installed after every rule here.
  const FlowRule* lookup(const Packet& p, int64_t in_port,
                         eval::TagMask tag_bit = eval::kAllTags,
                         const FlowTable* later = nullptr) const;
  // Partition `tags` by best matching rule: invokes cb(rule, submask)
  // once per distinct winning rule and returns the mask of tags with no
  // matching rule. This is what lets multi-query backtesting walk one
  // shared path for all candidates that agree (Section 4.4). `later` as
  // for lookup.
  template <class Fn>
  eval::TagMask partition(const Packet& p, int64_t in_port, eval::TagMask tags,
                          Fn&& cb, const FlowTable* later = nullptr) const;
  size_t size() const { return rules_.size(); }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};
  static constexpr size_t kMaxShapes = size_t{1} << kFieldCount;

  // Open-addressed index of one match shape: each slot holds the head of
  // a same-key rule chain, or kNone.
  struct Shape {
    uint16_t fields = 0;
    uint32_t keys = 0;
    std::vector<uint32_t> slots;
  };

  void index(uint32_t rule);
  void grow(Shape& shape);
  // The slot holding the chain for `key` (len values, in Field order), or
  // the empty slot where that chain would start.
  size_t slot_of(const Shape& shape, const int64_t* key, size_t len) const;
  // Fills `heads` with the chain head of every shape the packet's key
  // hits and returns how many there are.
  size_t hits(const Packet& p, int64_t in_port, uint32_t* heads) const;
  // Rank order: priority descending, then install order.
  bool outranks(uint32_t a, uint32_t b) const {
    return rules_[a].priority != rules_[b].priority
               ? rules_[a].priority > rules_[b].priority
               : a < b;
  }

  // The rules of one table that match a packet, drawn in rank order.
  class Sweep {
   public:
    Sweep(const FlowTable& t, const Packet& p, int64_t in_port)
        : t_(t), n_(t.hits(p, in_port, heads_)) {}
    // The best-ranked rule not drawn yet, or nullptr.
    const FlowRule* next() {
      size_t best = n_;
      for (size_t i = 0; i < n_; ++i) {
        if (heads_[i] != kNone &&
            (best == n_ || t_.outranks(heads_[i], heads_[best])))
          best = i;
      }
      if (best == n_) return nullptr;
      const FlowRule& r = t_.rules_[heads_[best]];
      heads_[best] = r.next;
      return &r;
    }

   private:
    const FlowTable& t_;
    uint32_t heads_[kMaxShapes];  // per hit chain, the next rule or kNone
    size_t n_;
  };

  // partition over this table and `later`: their sweeps merged, this
  // table's rule first on equal priority.
  template <class Fn>
  eval::TagMask partition_merged(const Packet& p, int64_t in_port,
                                 eval::TagMask tags, Fn& cb,
                                 const FlowTable& later) const;

  std::vector<FlowRule> rules_;  // install order
  std::vector<int64_t> values_;  // match-value arena
  std::vector<Shape> shapes_;
};

template <class Fn>
eval::TagMask FlowTable::partition(const Packet& p, int64_t in_port,
                                   eval::TagMask tags, Fn&& cb,
                                   const FlowTable* later) const {
  if (later != nullptr) return partition_merged(p, in_port, tags, cb, *later);
  Sweep sweep(*this, p, in_port);
  eval::TagMask remaining = tags;
  while (remaining != 0) {
    const FlowRule* r = sweep.next();
    if (r == nullptr) break;
    const eval::TagMask sub = remaining & r->tags;
    if (sub == 0) continue;
    cb(*r, sub);
    remaining &= ~sub;
  }
  return remaining;
}

// Out of line, so that the single-table sweep above, which every hop at a
// clean switch takes, stays small enough to inline into the forwarding
// loop. A two-layer loop in its place measured 6-12% slower per clean hop
// (36-switch campus, 4-vCPU x86-64).
template <class Fn>
[[gnu::noinline]] eval::TagMask FlowTable::partition_merged(
    const Packet& p, int64_t in_port, eval::TagMask tags, Fn& cb,
    const FlowTable& later) const {
  Sweep first(*this, p, in_port);
  Sweep second(later, p, in_port);
  const FlowRule* a = first.next();
  const FlowRule* b = second.next();
  eval::TagMask remaining = tags;
  while (remaining != 0 && (a != nullptr || b != nullptr)) {
    const FlowRule* r;
    if (b == nullptr || (a != nullptr && a->priority >= b->priority)) {
      r = a;
      a = first.next();
    } else {
      r = b;
      b = second.next();
    }
    const eval::TagMask sub = remaining & r->tags;
    if (sub == 0) continue;
    cb(*r, sub);
    remaining &= ~sub;
  }
  return remaining;
}

}  // namespace mp::sdn
