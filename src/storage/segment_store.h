// SegmentStore: the durable CheckpointSink (see eval/event_log.h).
//
// EventLog::compact() sections are framed into CRC'd chunks (format in
// storage/segment.h) and group-committed sequentially into append-only
// segment files `dir/seg-NNNNNN.mpseg`. Writes accumulate in a RAM buffer
// and hit the file when the buffer crosses group_buffer_bytes (or on
// flush()/fsync policy); a segment seals and the store rotates to a fresh
// file when it crosses rotate_bytes — always at a section boundary, so
// every segment decodes standalone.
//
// Construction is crash recovery: scan the directory, validate each
// segment front to back with SegmentReader (CRC + id continuity),
// truncate the torn tail of the last usable segment, delete anything
// after the first unusable one, and resume appending where the durable
// prefix ends. A store therefore always exposes a contiguous event range
// [0, events()) regardless of how the previous process died.
//
// Error handling (full contract table in src/storage/README.md): every
// I/O call goes through a bounded retry loop — EINTR retries free,
// transient conditions (EAGAIN, zero-length writes, failed fsync) retry
// up to SegmentStoreOptions::max_retries with exponential backoff, and a
// short write just advances the buffer pointer. A terminal error
// (ENOSPC/EIO/exhausted retries) latches the sticky failed() state. Under
// ErrorPolicy::kDegrade (default) the store stays silently alive: the
// group buffer is RETAINED (never discarded), so the accepted event range
// [0, events()) remains fully replayable in-process — replay_raw decodes
// the durable file prefix, then the retained buffer via SegmentReader's
// memory view. A failed() sink makes EventLog::compact() a no-op that
// leaves every later event live, so no in-process event is ever lost;
// only durability is (of the un-flushed tail and of everything after the
// failure). Under kFailStop the latching call throws storage::IoError
// instead (never from the destructor).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/event_log.h"
#include "storage/segment.h"
#include "util/status.h"

namespace mp::storage {

// What a terminal I/O error does to the store (SegmentStoreOptions).
enum class ErrorPolicy : uint8_t {
  kDegrade,   // latch sticky failed(); later events stay live in RAM
  kFailStop,  // the failing call throws storage::IoError
};

// Thrown by ErrorPolicy::kFailStop stores on terminal I/O errors.
class IoError : public std::runtime_error {
 public:
  explicit IoError(Status s)
      : std::runtime_error(s.to_string()), status_(std::move(s)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

struct SegmentStoreOptions {
  size_t rotate_bytes = 4u << 20;        // seal a segment past this size
  size_t group_buffer_bytes = 256u << 10;  // group-commit threshold
  FsyncPolicy fsync = FsyncPolicy::kNever;
  // Transient-error retry budget: EAGAIN, zero-length writes and failed
  // fsyncs retry up to max_retries times, sleeping backoff_initial_us
  // before the first retry and doubling up to backoff_cap_us. Any write
  // progress resets the budget. EINTR always retries and never counts.
  uint32_t max_retries = 8;
  uint32_t backoff_initial_us = 16;
  uint32_t backoff_cap_us = 2048;
  ErrorPolicy on_error = ErrorPolicy::kDegrade;
};

class SegmentStore final : public eval::CheckpointSink {
 public:
  // Creates `dir` if needed and recovers whatever segments it holds. A
  // directory that cannot be created/used latches failed() immediately
  // (or throws under kFailStop): the store is then a valid but inert
  // object callers can interrogate.
  explicit SegmentStore(std::string dir, SegmentStoreOptions opt = {});
  ~SegmentStore() override;
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  // --- CheckpointSink ---------------------------------------------------
  // Returns true iff the section was accepted (its bytes entered the
  // group buffer). A failed() store rejects sections; a flush failure
  // AFTER acceptance latches failed() but does not un-accept — the bytes
  // stay in the retained buffer and remain replayable in-process.
  bool append_section(eval::EventId first_id, size_t count,
                      std::span<const uint8_t> entries,
                      std::span<const uint8_t> names) override;
  void replay_raw(
      const std::function<bool(const eval::EventView&)>& fn) const override;
  size_t events() const override { return events_; }
  // Durable footprint: flushed file bytes plus the pending group buffer.
  size_t bytes() const override { return disk_bytes_ + buffer_.size(); }
  // Sticky terminal-failure latch (see file comment).
  bool failed() const override { return failed_; }

  // The first terminal error, if any (OK while !failed()).
  const Status& status() const { return status_; }

  // Writes the group buffer through to the current segment file
  // (optionally fsyncing). Logically const: moves queued bytes to disk
  // without changing the store's contents — replay_raw flushes first so
  // the mmap readers see everything appended. No-op once failed().
  void flush(bool sync) const;

  size_t segment_count() const { return segments_.size(); }
  const std::string& dir() const { return dir_; }
  // Recovery report: events found durable at construction, and bytes
  // discarded as torn/unreachable.
  size_t recovered_events() const { return recovered_events_; }
  size_t dropped_bytes() const { return dropped_bytes_; }
  // Local I/O-error accounting (process-cumulative counterparts live in
  // obs as storage.write_errors / storage.retries / storage.degraded).
  size_t write_errors() const { return write_errors_; }
  size_t retries() const { return retries_; }

 private:
  struct SegmentMeta {
    std::string path;
    uint64_t first_id = 0;
    size_t events = 0;
    size_t flushed_bytes = 0;  // bytes actually in the file
  };

  void recover();
  bool open_new_segment();
  bool open_last_for_append();
  void rotate();
  // Retry loop around ::write (see SegmentStoreOptions). Returns the
  // first terminal Status; partial progress advances the pointer.
  Status write_all(int fd, const uint8_t* p, size_t n) const;
  Status fsync_with_retry(int fd) const;
  // Latches the sticky failed() state (first error wins) and, under
  // kFailStop, throws IoError (the destructor catches it).
  void fail(Status s) const;

  std::string dir_;
  SegmentStoreOptions opt_;
  std::vector<SegmentMeta> segments_;  // in id order; back() is current
  size_t events_ = 0;
  size_t recovered_events_ = 0;
  size_t dropped_bytes_ = 0;
  // Group-commit state (mutable: flush() is logically const, see above).
  mutable std::vector<uint8_t> buffer_;
  mutable size_t disk_bytes_ = 0;  // flushed bytes across all segments
  mutable int fd_ = -1;            // current segment, positioned at end
  // First event id covered by the buffer's chunk stream (meaningful while
  // the buffer is non-empty; replay of a degraded store's retained buffer
  // decodes from here).
  mutable uint64_t buffer_first_id_ = 0;
  // Failure latch + accounting (mutable: a const flush() can fail).
  mutable bool failed_ = false;
  mutable Status status_;
  mutable size_t write_errors_ = 0;
  mutable size_t retries_ = 0;
};

}  // namespace mp::storage
