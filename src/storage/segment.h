// Durable segment files for EventLog checkpoints (ROADMAP "Durable
// segmented event-log store"; write-path shape after the append-only
// sequential-zone discipline in the log-structured-storage related work —
// see PAPERS.md).
//
// A segment is an append-only file of CRC-framed chunks:
//
//   file header (16 B):  "MPSEG\0" | u16 version | u64 first_event_id
//   chunk header (32 B): u32 chunk magic | u8 kind | u8[3] pad |
//                        u64 first_event_id | u32 count |
//                        u32 payload_len | u32 payload_crc32 |
//                        u32 header_crc32 (over the first 28 bytes)
//
// Each EventLog::compact() section lands as two chunks: a names chunk
// (kind 0, the section's string-table records) immediately followed by an
// entries chunk (kind 1, `count` serialized entries in the
// eval/ckpt_format.h layout covering events [first_event_id,
// first_event_id + count)). Sections are self-contained — the log resets
// its name dedup per section — so a segment boundary can fall between any
// two sections and every segment decodes standalone.
//
// Recovery invariant: a crash can tear only the tail. SegmentReader walks
// chunks front to back and stops at the first invalid header, CRC
// mismatch, payload overrun, id discontinuity, or section that does not
// decode (an entry or name record running past its chunk, an unknown id
// or kind); valid_bytes() is the end of the last complete section before
// that point, so truncating the file there (SegmentStore does on open)
// yields exactly the durable prefix. Every read is bounds-checked, so a
// hostile file with valid CRCs ends the walk instead of reading out of
// bounds. The kill-at-every-byte sweep and the hostile-segment case in
// tests/storage_test.cpp pin this.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eval/event_log.h"

namespace mp::storage {

inline constexpr char kFileMagic[6] = {'M', 'P', 'S', 'E', 'G', '\0'};
// Version 2: entries use the 22-byte eval/ckpt_format.h header (no
// per-entry time field — ids come from the chunk header's first_event_id
// — and ncauses narrowed to u8). Version-1 segments are rejected on open;
// recovery of a v1 store requires replaying it with a v1 build first.
inline constexpr uint16_t kFormatVersion = 2;
inline constexpr size_t kFileHeaderBytes = 16;
inline constexpr uint32_t kChunkMagic = 0x314b4843;  // "CHK1"
inline constexpr size_t kChunkHeaderBytes = 32;
inline constexpr uint8_t kChunkNames = 0;
inline constexpr uint8_t kChunkEntries = 1;

// When segment writes reach the disk (SegmentStoreOptions::fsync).
enum class FsyncPolicy : uint8_t {
  kNever,     // leave it to the OS (tests, benchmarks)
  kOnRotate,  // fsync when a segment is sealed (bounded loss: one segment)
  kOnAppend,  // fsync every flushed append (group commit is the batching)
};

// Self-contained CRC-32 (IEEE, reflected 0xEDB88320) — the framing
// checksum; no external zlib dependency.
uint32_t crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

// Serializes a chunk header into `out` (the payload follows separately).
void append_chunk_header(std::vector<uint8_t>& out, uint8_t kind,
                         uint64_t first_event_id, uint32_t count,
                         const uint8_t* payload, uint32_t payload_len);

// Read-only mmap view of one segment file, decoding events with no live
// engine, catalog or pool attached: table/rule names and node values come
// from the segment's own names chunks (string_views point into the map
// and stay valid for the reader's lifetime; per-event row/cause scratch
// is valid until the next decoded event).
class SegmentReader {
 public:
  explicit SegmentReader(const std::string& path);
  // In-memory view (no mmap, nothing owned): decodes a chunk stream held
  // in RAM — how a degraded store replays its retained group buffer
  // (SegmentStore::replay_raw). If `data` begins with a segment file
  // header it is parsed normally; otherwise the stream is taken to start
  // at a chunk boundary with `fallback_first_id` as its first event id
  // (the buffer of a mid-segment flush carries no header). `data` must
  // outlive the reader.
  SegmentReader(const uint8_t* data, size_t size, uint64_t fallback_first_id);
  ~SegmentReader();
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  // File header parsed and version understood. A reader that is !ok()
  // holds no events and zero valid bytes.
  bool ok() const { return ok_; }
  uint64_t first_id() const { return first_id_; }
  // Events in the valid (CRC-complete, id-contiguous, well-formed) prefix;
  // for_each visits exactly these.
  size_t events() const { return events_; }
  // Byte length of the valid prefix: end of its last complete section.
  // valid_bytes() < file_bytes() means a torn tail was detected.
  size_t valid_bytes() const { return valid_bytes_; }
  size_t file_bytes() const { return size_; }

  // Streams the valid prefix's events in id order; `fn` returns false to
  // stop. Returns the number of events visited.
  size_t for_each(const std::function<bool(const eval::EventView&)>& fn) const;

 private:
  using EventFn = std::function<bool(const eval::EventView&)>;
  void validate();
  // The one chunk walk behind validate() (fn null: check CRCs, count
  // events) and for_each() (stream events through fn): decodes chunks
  // from begin_ up to byte `limit`, adding each decoded event to
  // `events`, and returns the end of the last complete, well-formed
  // section.
  size_t walk(size_t limit, const EventFn* fn, size_t& events) const;

  bool ok_ = false;
  bool mem_view_ = false;  // borrowed RAM stream: no munmap, header optional
  uint64_t first_id_ = 0;
  size_t events_ = 0;
  size_t valid_bytes_ = 0;
  size_t begin_ = kFileHeaderBytes;  // offset of the first chunk
  const uint8_t* data_ = nullptr;  // mmap base (nullptr if open failed)
  size_t size_ = 0;
};

}  // namespace mp::storage
