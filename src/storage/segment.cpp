#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "eval/ckpt_format.h"

namespace mp::storage {

namespace ckpt = mp::eval::ckpt;

uint32_t crc32(const uint8_t* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ data[i]) & 0xff] ^ (c >> 8);
  return ~c;
}

void append_chunk_header(std::vector<uint8_t>& out, uint8_t kind,
                         uint64_t first_event_id, uint32_t count,
                         const uint8_t* payload, uint32_t payload_len) {
  const size_t start = out.size();
  ckpt::put_u32(out, kChunkMagic);
  out.push_back(kind);
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  ckpt::put_u64(out, first_event_id);
  ckpt::put_u32(out, count);
  ckpt::put_u32(out, payload_len);
  ckpt::put_u32(out, crc32(payload, payload_len));
  // Header CRC over the 28 bytes above: a write torn inside the header
  // itself is caught without trusting payload_len.
  ckpt::put_u32(out, crc32(out.data() + start, kChunkHeaderBytes - 4));
}

SegmentReader::SegmentReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return;
  }
  size_ = static_cast<size_t>(st.st_size);
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    size_ = 0;
    return;
  }
  data_ = static_cast<const uint8_t*>(map);
  validate();
}

SegmentReader::SegmentReader(const uint8_t* data, size_t size,
                             uint64_t fallback_first_id)
    : mem_view_(true), first_id_(fallback_first_id), data_(data),
      size_(size) {
  validate();
}

SegmentReader::~SegmentReader() {
  if (data_ != nullptr && !mem_view_) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

void SegmentReader::validate() {
  const bool has_header =
      size_ >= kFileHeaderBytes &&
      std::memcmp(data_, kFileMagic, sizeof(kFileMagic)) == 0;
  if (has_header) {
    if (ckpt::get_u16(data_ + 6) != kFormatVersion) return;
    first_id_ = ckpt::get_u64(data_ + 8);
    begin_ = kFileHeaderBytes;
  } else if (mem_view_) {
    // A headerless RAM stream (mid-segment group buffer): chunks start at
    // offset 0 and first_id_ keeps the caller's fallback.
    begin_ = 0;
  } else {
    return;  // files must open with a header
  }
  ok_ = true;
  valid_bytes_ = walk(size_, nullptr, events_);
}

size_t SegmentReader::for_each(
    const std::function<bool(const eval::EventView&)>& fn) const {
  if (!ok_) return 0;
  size_t visited = 0;
  walk(valid_bytes_, &fn, visited);
  return visited;
}

namespace {

// One section's string tables, rebuilt at every names chunk (sections
// are self-contained). Name views point into the mapped bytes; node
// Values are materialized once per record.
struct SectionNames {
  std::vector<std::string_view> tables;
  std::vector<std::string_view> rules;
  std::vector<Value> nodes;
};

// Decodes a names-chunk payload [p, end). False if a record runs past
// the payload or has an unknown kind.
bool decode_names(const uint8_t* p, const uint8_t* end, SectionNames& out) {
  out.tables.clear();
  out.rules.clear();
  out.nodes.clear();
  while (p < end) {
    if (end - p < 3) return false;
    const uint8_t kind = p[0];
    const uint16_t id = ckpt::get_u16(p + 1);
    p += 3;
    if (kind == ckpt::kNameNode) {
      Value v;
      if (!ckpt::get_value(p, end, &v)) return false;
      if (id >= out.nodes.size()) out.nodes.resize(id + 1);
      out.nodes[id] = std::move(v);
      continue;
    }
    if (kind != ckpt::kNameTable && kind != ckpt::kNameRule) return false;
    if (end - p < 2) return false;
    const uint16_t len = ckpt::get_u16(p);
    p += 2;
    if (end - p < len) return false;
    auto& names = kind == ckpt::kNameTable ? out.tables : out.rules;
    if (id >= names.size()) names.resize(id + 1);
    names[id] = std::string_view(reinterpret_cast<const char*>(p), len);
    p += len;
  }
  return true;
}

// Decodes the entry at `p` (which must end by `end`) against `names`,
// filling `re` and, when `row` is non-null, the row values and causes.
// Returns the next entry's start, or nullptr if the entry is malformed:
// its header or payload runs past `end`, its kind or an id is unknown, or
// its values plus causes do not fill payload_len exactly.
const uint8_t* decode_entry(const uint8_t* p, const uint8_t* end,
                            const SectionNames& names, eval::EventView& re,
                            Row* row, std::vector<eval::EventId>* causes) {
  if (static_cast<size_t>(end - p) < ckpt::kHeaderBytes) return nullptr;
  const uint8_t kind = p[ckpt::kKindOffset];
  const uint8_t ncauses = p[ckpt::kNCausesOffset];
  const uint16_t table_id = ckpt::get_u16(p + ckpt::kTableIdOffset);
  const uint16_t rule_id = ckpt::get_u16(p + ckpt::kRuleIdOffset);
  const uint16_t nvals = ckpt::get_u16(p + ckpt::kNValsOffset);
  const uint16_t node_id = ckpt::get_u16(p + ckpt::kNodeIdOffset);
  const uint32_t payload_len = ckpt::get_u32(p + ckpt::kPayloadLenOffset);
  const uint8_t* q = p + ckpt::kHeaderBytes;
  if (static_cast<size_t>(end - q) < payload_len) return nullptr;
  const uint8_t* next = q + payload_len;
  if (kind > static_cast<uint8_t>(eval::EventKind::Receive) ||
      table_id >= names.tables.size() || node_id >= names.nodes.size() ||
      (rule_id != ckpt::kNoRuleSerialized && rule_id >= names.rules.size())) {
    return nullptr;
  }
  if (row != nullptr) row->clear();
  for (uint16_t v = 0; v < nvals; ++v) {
    Value val;
    if (!ckpt::get_value(q, next, row != nullptr ? &val : nullptr)) {
      return nullptr;
    }
    if (row != nullptr) row->push_back(std::move(val));
  }
  if (static_cast<size_t>(next - q) != 8u * ncauses) return nullptr;
  if (causes != nullptr) {
    causes->clear();
    for (; q < next; q += 8) causes->push_back(ckpt::get_u64(q));
  }
  re.tags = ckpt::get_u64(p);
  re.kind = static_cast<eval::EventKind>(kind);
  re.table = names.tables[table_id];
  re.rule = rule_id == ckpt::kNoRuleSerialized ? std::string_view{}
                                               : names.rules[rule_id];
  re.node = &names.nodes[node_id];
  return next;
}

}  // namespace

size_t SegmentReader::walk(size_t limit, const EventFn* fn,
                           size_t& events) const {
  // Every read below is bounds-checked against the chunk (and so the
  // mapping): CRCs only prove the bytes are the ones written, not that a
  // writer wrote them well, and segment files are input from outside the
  // process. The walk ends at the first torn, out-of-place or malformed
  // chunk; the returned end only advances past a complete section (its
  // entries chunk), so a trailing lone names chunk carries no events and
  // is dropped with the tail.
  SectionNames names;
  Row row;
  std::vector<eval::EventId> causes;
  uint64_t next_id = first_id_;
  size_t section_end = begin_;
  size_t pos = begin_;
  while (limit - pos >= kChunkHeaderBytes) {
    const uint8_t* h = data_ + pos;
    if (ckpt::get_u32(h) != kChunkMagic) break;
    if (crc32(h, kChunkHeaderBytes - 4) !=
        ckpt::get_u32(h + kChunkHeaderBytes - 4)) {
      break;
    }
    const uint8_t kind = h[4];
    const uint64_t chunk_first = ckpt::get_u64(h + 8);
    const uint32_t count = ckpt::get_u32(h + 16);
    const uint32_t payload_len = ckpt::get_u32(h + 20);
    if (kind != kChunkNames && kind != kChunkEntries) break;
    if (limit - pos - kChunkHeaderBytes < payload_len) break;  // torn tail
    const uint8_t* p = h + kChunkHeaderBytes;
    const uint8_t* end = p + payload_len;
    // The validating pass (no fn) checks payload CRCs; the decoding pass
    // only walks the prefix that pass accepted.
    if (fn == nullptr && crc32(p, payload_len) != ckpt::get_u32(h + 24)) {
      break;
    }
    if (kind == kChunkNames) {
      if (!decode_names(p, end, names)) break;
    } else {
      // Sections must cover a contiguous id range from the file header's
      // first id: a gap means lost data, not a usable suffix.
      if (chunk_first != next_id) break;
      // A section counts only if all `count` entries decode and exactly
      // fill the payload.
      for (uint32_t i = 0; i < count && p != nullptr; ++i) {
        eval::EventView re;
        re.id = chunk_first + i;  // v2 entries carry no time
        p = decode_entry(p, end, names, re, fn != nullptr ? &row : nullptr,
                         fn != nullptr ? &causes : nullptr);
        if (p == nullptr || fn == nullptr) continue;
        re.row = &row;
        re.causes = {causes.data(), causes.size()};
        ++events;
        if (!(*fn)(re)) return section_end;
      }
      if (p != end) break;
      next_id += count;
      if (fn == nullptr) events += count;
      section_end = pos + kChunkHeaderBytes + payload_len;
    }
    pos += kChunkHeaderBytes + payload_len;
  }
  return section_end;
}

}  // namespace mp::storage
