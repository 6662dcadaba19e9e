// Serialized checkpoint format primitives: the EventLog writes sections
// in this layout (eval/event_log.cpp) and the durable segment store's
// SegmentReader (src/storage) decodes them with no live engine attached
// — the one checkpoint decoder. One definition of the layout so writer
// and reader cannot drift.
//
// Entry layout v2 (little-endian, 22-byte fixed header):
//   u64 tags | u8 kind | u8 ncauses | u16 table_id | u16 rule_id |
//   u16 nvals | u16 node_id | u32 payload_len
// followed by payload: nvals row values (u8 tag, then i64 or u16 len +
// bytes), ncauses x u64 cause ids.
//
// v2 dropped the leading u64 time of v1: times are assigned densely in
// id order (EventLog::event_time() == id + 1), and the reader already
// knows every entry's id from its position (the chunk header's first_id
// plus the entry index). Ten redundant bytes per entry bought nothing. ncauses also narrowed
// u16 -> u8, matching the 32-byte in-memory Event (an event's causes are
// one per body atom or a single link; the writer asserts the cap).
//
// String-table records (name blob): u8 kind (0 = table, 1 = rule) |
// u16 id | u16 len | bytes, or for nodes: u8 kind (2) | u16 id |
// serialized Value.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/value.h"

namespace mp::eval::ckpt {

inline constexpr size_t kHeaderBytes = 22;
inline constexpr uint16_t kNoRuleSerialized = 0xffff;

// Fixed byte offsets of the fields inside an entry header.
inline constexpr size_t kKindOffset = 8;
inline constexpr size_t kNCausesOffset = 9;
inline constexpr size_t kTableIdOffset = 10;
inline constexpr size_t kRuleIdOffset = 12;
inline constexpr size_t kNValsOffset = 14;
inline constexpr size_t kNodeIdOffset = 16;
inline constexpr size_t kPayloadLenOffset = 18;

// String-table record kinds.
inline constexpr uint8_t kNameTable = 0;
inline constexpr uint8_t kNameRule = 1;
inline constexpr uint8_t kNameNode = 2;

inline void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
inline void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline void put_value(std::vector<uint8_t>& out, const Value& v) {
  out.push_back(v.is_int() ? 0 : 1);
  if (v.is_int()) {
    put_u64(out, static_cast<uint64_t>(v.as_int()));
  } else {
    put_u16(out, static_cast<uint16_t>(v.as_str().size()));
    out.insert(out.end(), v.as_str().begin(), v.as_str().end());
  }
}
inline size_t value_bytes(const Value& v) {
  return v.is_int() ? 1 + 8 : 1 + 2 + v.as_str().size();
}

inline uint16_t get_u16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t get_u32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
inline uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}
// Reads one serialized Value at `p`, advancing it, without reading at or
// past `end`; `out` may be null to skip the value. Returns false (with
// `p` unspecified) on an unknown tag or a value that runs past `end`.
inline bool get_value(const uint8_t*& p, const uint8_t* end, Value* out) {
  if (p >= end) return false;
  const uint8_t tag = *p++;
  if (tag == 0) {
    if (end - p < 8) return false;
    if (out != nullptr) *out = Value(static_cast<int64_t>(get_u64(p)));
    p += 8;
    return true;
  }
  if (tag != 1 || end - p < 2) return false;
  const uint16_t len = get_u16(p);
  p += 2;
  if (end - p < len) return false;
  if (out != nullptr) {
    *out = Value::str(std::string_view(reinterpret_cast<const char*>(p), len));
  }
  p += len;
  return true;
}

// Size of one string-table record for a table/rule name.
inline size_t name_record_bytes(std::string_view name) {
  return 1 + 2 + 2 + name.size();
}

}  // namespace mp::eval::ckpt
