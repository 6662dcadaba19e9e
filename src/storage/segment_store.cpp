#include "storage/segment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "eval/ckpt_format.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace mp::storage {

namespace fs = std::filesystem;

namespace {

// storage.segment.* instruments (process-cumulative across stores), plus
// the storage.{write_errors,retries,degraded} error surface.
// Registered once; relaxed-atomic adds after that.
struct SegmentObs {
  obs::Counter& bytes_written;
  obs::Counter& flushes;
  obs::Counter& fsyncs;
  obs::Counter& rotations;
  obs::Counter& sections;
  obs::Counter& recovered_events;
  obs::Counter& dropped_bytes;
  obs::Counter& write_errors;
  obs::Counter& retries;
  obs::Counter& degraded;
  static SegmentObs& get() {
    obs::Registry& r = obs::Registry::global();
    static SegmentObs o{r.counter("storage.segment.bytes_written"),
                        r.counter("storage.segment.flushes"),
                        r.counter("storage.segment.fsyncs"),
                        r.counter("storage.segment.rotations"),
                        r.counter("storage.segment.sections"),
                        r.counter("storage.segment.recovered_events"),
                        r.counter("storage.segment.dropped_bytes"),
                        r.counter("storage.write_errors"),
                        r.counter("storage.retries"),
                        r.counter("storage.degraded")};
    return o;
  }
};

std::string segment_path(const std::string& dir, size_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06zu.mpseg", seq);
  return dir + "/" + name;
}

// Syscall wrappers carrying the failpoints (fault builds only; the
// macros are the literal 0 otherwise and the branches fold away).
// "storage.segment.short_write" genuinely writes half the request — the
// caller must cope with real partial progress, not a simulated flag.
ssize_t fp_write(int fd, const uint8_t* p, size_t n) {
  if (const int ec = MP_FAILPOINT("storage.segment.write")) {
    errno = ec;
    return -1;
  }
  if (MP_FAILPOINT("storage.segment.short_write") != 0 && n > 1) {
    n /= 2;
  }
  return ::write(fd, p, n);
}

int fp_fsync(int fd) {
  if (const int ec = MP_FAILPOINT("storage.segment.fsync")) {
    errno = ec;
    return -1;
  }
  return ::fsync(fd);
}

int fp_open(const char* path, int flags, mode_t mode) {
  if (const int ec = MP_FAILPOINT("storage.segment.open")) {
    errno = ec;
    return -1;
  }
  return ::open(path, flags, mode);
}

bool transient_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK;
}

}  // namespace

SegmentStore::SegmentStore(std::string dir, SegmentStoreOptions opt)
    : dir_(std::move(dir)), opt_(opt) {
  if (const int ec = MP_FAILPOINT("storage.segment.mkdir")) {
    fail(Status(StatusCode::kIoError, "create segment dir " + dir_, ec));
    return;
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_)) {
    // Unwritable parent, or a regular file squatting on the path: the
    // store latches failed() at attach time (or throws under kFailStop)
    // and stays an inert, interrogable object.
    fail(Status(StatusCode::kIoError, "create segment dir " + dir_,
                ec.value() != 0 ? ec.value() : ENOTDIR));
    return;
  }
  recover();
}

SegmentStore::~SegmentStore() {
  try {
    flush(opt_.fsync != FsyncPolicy::kNever);
  } catch (const IoError&) {
    // kFailStop stores throw on the failing call, but never from here.
  }
  if (fd_ >= 0) ::close(fd_);
}

void SegmentStore::fail(Status s) const {
  if (!failed_) {
    failed_ = true;
    status_ = std::move(s);
    if (obs::enabled()) SegmentObs::get().degraded.inc();
  }
  if (opt_.on_error == ErrorPolicy::kFailStop) throw IoError(status_);
}

void SegmentStore::recover() {
  // Segment names embed a zero-padded sequence number, so lexicographic
  // order is id order.
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir_, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind("seg-", 0) == 0 &&
        name.size() > 10 && name.substr(name.size() - 6) == ".mpseg") {
      paths.push_back(ent.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  size_t i = 0;
  for (; i < paths.size(); ++i) {
    SegmentReader r(paths[i]);
    // A segment must pick up exactly where the previous one ended; a bad
    // header or an id gap means this file (and everything after it) holds
    // nothing recoverable. A zero-length file (crash between open and the
    // first header write) lands here too: !ok(), dropped below.
    if (!r.ok() || r.first_id() != events_) break;
    if (r.valid_bytes() < r.file_bytes()) {
      // Torn tail: truncate to the durable prefix. Later files cannot be
      // valid (they would leave an id gap), so the loop below drops them.
      dropped_bytes_ += r.file_bytes() - r.valid_bytes();
      ::truncate(paths[i].c_str(), static_cast<off_t>(r.valid_bytes()));
    }
    segments_.push_back(SegmentMeta{paths[i], r.first_id(), r.events(),
                                    r.valid_bytes()});
    events_ += r.events();
    disk_bytes_ += r.valid_bytes();
    if (r.valid_bytes() < r.file_bytes()) {
      ++i;
      break;
    }
  }
  for (; i < paths.size(); ++i) {
    std::error_code rm_ec;
    dropped_bytes_ += fs::file_size(paths[i], rm_ec);
    fs::remove(paths[i], rm_ec);
  }
  recovered_events_ = events_;
  buffer_first_id_ = events_;
  if (obs::enabled()) {
    SegmentObs::get().recovered_events.add(recovered_events_);
    SegmentObs::get().dropped_bytes.add(dropped_bytes_);
  }
}

bool SegmentStore::open_new_segment() {
  assert(buffer_.empty());
  const std::string path = segment_path(dir_, segments_.size());
  fd_ = fp_open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    fail(Status(StatusCode::kIoError, "create segment " + path, errno));
    return false;
  }
  segments_.push_back(SegmentMeta{path, events_, 0, 0});
  buffer_first_id_ = events_;
  // File header goes through the group buffer like everything else.
  buffer_.insert(buffer_.end(), kFileMagic, kFileMagic + sizeof(kFileMagic));
  eval::ckpt::put_u16(buffer_, kFormatVersion);
  eval::ckpt::put_u64(buffer_, events_);
  return true;
}

bool SegmentStore::open_last_for_append() {
  fd_ = fp_open(segments_.back().path.c_str(), O_WRONLY | O_APPEND, 0);
  if (fd_ < 0) {
    fail(Status(StatusCode::kIoError,
                "reopen segment " + segments_.back().path, errno));
    return false;
  }
  return true;
}

void SegmentStore::rotate() {
  flush(opt_.fsync != FsyncPolicy::kNever);
  // A failed flush aborts the rotation: the retained buffer belongs to
  // the current segment (the buffer must never span a segment boundary).
  if (failed_) return;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (!open_new_segment()) return;
  if (obs::enabled()) SegmentObs::get().rotations.inc();
}

Status SegmentStore::write_all(int fd, const uint8_t* p, size_t n) const {
  uint32_t attempts = 0;
  uint32_t backoff = opt_.backoff_initial_us;
  while (n > 0) {
    const ssize_t w = fp_write(fd, p, n);
    if (w > 0) {
      // A short write is not an error: advance past what landed and keep
      // going, with a fresh retry budget (progress was made).
      p += static_cast<size_t>(w);
      n -= static_cast<size_t>(w);
      attempts = 0;
      backoff = opt_.backoff_initial_us;
      continue;
    }
    if (w < 0 && errno == EINTR) continue;  // always retried, never counted
    const int err = w < 0 ? errno : 0;  // w == 0: no progress, no errno
    ++write_errors_;
    if (obs::enabled()) SegmentObs::get().write_errors.inc();
    if (w < 0 && !transient_errno(err)) {
      return Status(err == ENOSPC ? StatusCode::kNoSpace
                                  : StatusCode::kIoError,
                    "write " + segments_.back().path, err);
    }
    if (attempts >= opt_.max_retries) {
      return Status(StatusCode::kRetryExhausted,
                    "write " + segments_.back().path, err);
    }
    ++attempts;
    ++retries_;
    if (obs::enabled()) SegmentObs::get().retries.inc();
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    backoff = std::min(backoff * 2, opt_.backoff_cap_us);
  }
  return Status();
}

Status SegmentStore::fsync_with_retry(int fd) const {
  uint32_t attempts = 0;
  uint32_t backoff = opt_.backoff_initial_us;
  while (fp_fsync(fd) != 0) {
    if (errno == EINTR) continue;
    ++write_errors_;
    if (obs::enabled()) SegmentObs::get().write_errors.inc();
    if (!transient_errno(errno) || attempts >= opt_.max_retries) {
      return Status(errno == ENOSPC ? StatusCode::kNoSpace
                                    : StatusCode::kIoError,
                    "fsync " + segments_.back().path, errno);
    }
    ++attempts;
    ++retries_;
    if (obs::enabled()) SegmentObs::get().retries.inc();
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    backoff = std::min(backoff * 2, opt_.backoff_cap_us);
  }
  return Status();
}

void SegmentStore::flush(bool sync) const {
  // Sticky: once failed, the buffer is the accepted-but-not-durable tail
  // and must be RETAINED — replay_raw decodes it in place, and clearing
  // it would lose accepted events in-process.
  if (failed_) return;
  if (!buffer_.empty() && fd_ >= 0) {
    Status st = write_all(fd_, buffer_.data(), buffer_.size());
    if (!st.ok()) {
      // The file may hold a partial copy of the buffer (complete sections
      // included); disk accounting stays conservative and replay dedups
      // by event id.
      fail(std::move(st));
      return;
    }
    disk_bytes_ += buffer_.size();
    const_cast<SegmentStore*>(this)->segments_.back().flushed_bytes +=
        buffer_.size();
    if (obs::enabled()) {
      SegmentObs::get().bytes_written.add(buffer_.size());
      SegmentObs::get().flushes.inc();
    }
    buffer_.clear();
    buffer_first_id_ = events_;
  }
  if (sync && fd_ >= 0) {
    Status st = fsync_with_retry(fd_);
    if (!st.ok()) {
      fail(std::move(st));
      return;
    }
    if (obs::enabled()) SegmentObs::get().fsyncs.inc();
  }
}

bool SegmentStore::append_section(eval::EventId first_id, size_t count,
                                  std::span<const uint8_t> entries,
                                  std::span<const uint8_t> names) {
  if (failed_) return false;
  assert(first_id == events_ && "sections must arrive in id order");
  (void)first_id;
  if (fd_ < 0) {
    const bool opened =
        segments_.empty() ? open_new_segment() : open_last_for_append();
    if (!opened) return false;  // nothing buffered; failed() latched
  }
  const size_t incoming =
      2 * kChunkHeaderBytes + entries.size() + names.size();
  // Rotate at section boundaries only (each section is self-contained),
  // and never on an empty segment — an oversized section must still land
  // somewhere.
  if (segments_.back().events > 0 &&
      segments_.back().flushed_bytes + buffer_.size() + incoming >
          opt_.rotate_bytes) {
    rotate();
    if (failed_) return false;
  }
  if (buffer_.empty()) buffer_first_id_ = events_;
  append_chunk_header(buffer_, kChunkNames, events_,
                      0, names.data(), static_cast<uint32_t>(names.size()));
  buffer_.insert(buffer_.end(), names.begin(), names.end());
  append_chunk_header(buffer_, kChunkEntries, events_,
                      static_cast<uint32_t>(count), entries.data(),
                      static_cast<uint32_t>(entries.size()));
  buffer_.insert(buffer_.end(), entries.begin(), entries.end());
  segments_.back().events += count;
  events_ += count;
  if (obs::enabled()) SegmentObs::get().sections.inc();
  // The section is accepted from here on: its bytes are in the buffer. A
  // flush failure below latches failed() (or throws, kFailStop) but does
  // not un-accept — the retained buffer keeps the events replayable.
  if (opt_.fsync == FsyncPolicy::kOnAppend) {
    flush(true);
  } else if (buffer_.size() >= opt_.group_buffer_bytes) {
    flush(false);
  }
  return true;
}

void SegmentStore::replay_raw(
    const std::function<bool(const eval::EventView&)>& fn) const {
  flush(false);  // readers mmap the files; pending bytes must be visible
  // `next` is the only id accepted: duplicates below it (a partially
  // flushed buffer re-decoded from RAM) are skipped, and a gap above it
  // (a segment deleted out from under the store) ends the replay at the
  // contiguous prefix instead of replaying a hole.
  uint64_t next = 0;
  bool stopped = false;
  auto emit = [&](const eval::EventView& re) {
    if (re.id < next) return true;
    if (re.id != next) return false;
    ++next;
    if (!fn(re)) {
      stopped = true;
      return false;
    }
    return true;
  };
  for (const SegmentMeta& meta : segments_) {
    SegmentReader r(meta.path);
    if (!r.ok() || r.first_id() > next) break;
    r.for_each(emit);
    if (stopped) return;
  }
  if (failed_ && !buffer_.empty()) {
    // Degraded store: the retained group buffer holds the accepted tail
    // that never became durable. Decode it in place (it may or may not
    // start with a file header, depending on where the failure hit).
    SegmentReader r(buffer_.data(), buffer_.size(), buffer_first_id_);
    r.for_each(emit);
  }
}

}  // namespace mp::storage
