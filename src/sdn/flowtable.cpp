#include "sdn/flowtable.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace mp::sdn {

static_assert(sizeof(FlowRule) == 40, "src/sdn/README.md documents the layout");

namespace {

// The packet's header fields plus in_port, indexed by Field (the order of
// field_of's cases).
std::array<int64_t, kFieldCount> packet_fields(const Packet& p,
                                               int64_t in_port) {
  static_assert(static_cast<size_t>(Field::InPort) == 0 &&
                static_cast<size_t>(Field::Bucket) == 8 && kFieldCount == 9);
  return {in_port, p.sip, p.dip, p.smc, p.dmc, p.spt, p.dpt, p.proto, p.bucket};
}

uint64_t hash_key(const int64_t* key, size_t len) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ static_cast<uint64_t>(key[i])) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace

bool FlowEntry::matches(const Packet& p, int64_t in_port) const {
  for (const MatchField& m : match) {
    if (m.value.is_wildcard()) continue;
    if (!m.value.is_int()) return false;
    if (field_of(p, in_port, m.field) != m.value.as_int()) return false;
  }
  return true;
}

std::string FlowEntry::to_string() const {
  std::string out = "[";
  for (size_t i = 0; i < match.size(); ++i) {
    if (i) out += ", ";
    out += std::string(mp::sdn::to_string(match[i].field)) + "=" +
           match[i].value.to_string();
  }
  out += "] prio=" + std::to_string(priority) + " -> " + action.to_string();
  return out;
}

void FlowTable::add(const FlowEntry& entry) {
  FlowRule rule;
  rule.tags = entry.tags;
  rule.action = entry.action;
  rule.priority = entry.priority;
  int64_t key[kFieldCount] = {};
  for (const MatchField& m : entry.match) {
    if (m.value.is_wildcard()) continue;
    const size_t f = static_cast<size_t>(m.field);
    const auto bit = static_cast<uint16_t>(1u << f);
    if (!m.value.is_int() ||
        ((rule.fields & bit) && key[f] != m.value.as_int())) {
      rule.never = true;
      break;
    }
    rule.fields |= bit;
    key[f] = m.value.as_int();
  }
  if (rule.never) {
    rule.fields = 0;
  } else {
    rule.values = static_cast<uint32_t>(values_.size());
    for (uint16_t m = rule.fields; m != 0; m &= m - 1)
      values_.push_back(key[std::countr_zero(m)]);
  }
  rules_.push_back(rule);
  if (!rule.never) index(static_cast<uint32_t>(rules_.size() - 1));
}

size_t FlowTable::slot_of(const Shape& shape, const int64_t* key,
                          size_t len) const {
  const size_t mask = shape.slots.size() - 1;
  size_t i = hash_key(key, len) & mask;
  while (shape.slots[i] != kNone &&
         !std::equal(key, key + len,
                     values_.data() + rules_[shape.slots[i]].values)) {
    i = (i + 1) & mask;
  }
  return i;
}

void FlowTable::grow(Shape& shape) {
  std::vector<uint32_t> old = std::move(shape.slots);
  shape.slots.assign(old.empty() ? 8 : old.size() * 2, kNone);
  const auto len = static_cast<size_t>(std::popcount(shape.fields));
  for (uint32_t head : old) {
    if (head == kNone) continue;
    shape.slots[slot_of(shape, values_.data() + rules_[head].values, len)] =
        head;
  }
}

void FlowTable::index(uint32_t idx) {
  FlowRule& rule = rules_[idx];
  rule.next = kNone;
  Shape* shape = nullptr;
  for (Shape& s : shapes_) {
    if (s.fields == rule.fields) shape = &s;
  }
  if (shape == nullptr) {
    shape = &shapes_.emplace_back();
    shape->fields = rule.fields;
  }
  if ((shape->keys + 1) * 4 > shape->slots.size() * 3) grow(*shape);

  const auto len = static_cast<size_t>(std::popcount(rule.fields));
  const int64_t* key = values_.data() + rule.values;
  uint32_t& head = shape->slots[slot_of(*shape, key, len)];
  if (head == kNone) {
    head = idx;
    ++shape->keys;
    return;
  }
  // Same key: insert after every rule of equal or higher priority, so the
  // chain stays in rank order (the new rule is the latest installed).
  uint32_t* link = &head;
  while (*link != kNone && rules_[*link].priority >= rule.priority) {
    link = &rules_[*link].next;
  }
  rule.next = *link;
  *link = idx;
}

size_t FlowTable::hits(const Packet& p, int64_t in_port,
                       uint32_t* heads) const {
  const auto pv = packet_fields(p, in_port);
  size_t n = 0;
  for (const Shape& s : shapes_) {
    int64_t key[kFieldCount] = {};
    size_t len = 0;
    for (uint16_t m = s.fields; m != 0; m &= m - 1)
      key[len++] = pv[std::countr_zero(m)];
    const uint32_t head = s.slots[slot_of(s, key, len)];
    if (head != kNone) heads[n++] = head;
  }
  return n;
}

const FlowRule* FlowTable::lookup(const Packet& p, int64_t in_port,
                                  eval::TagMask tag_bit,
                                  const FlowTable* later) const {
  // The first rule partition hands any of the tags is the best-ranked one.
  const FlowRule* best = nullptr;
  partition(
      p, in_port, tag_bit,
      [&](const FlowRule& r, eval::TagMask) {
        if (best == nullptr) best = &r;
      },
      later);
  return best;
}

}  // namespace mp::sdn
