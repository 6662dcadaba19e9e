#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>

#include "obs/obs.h"

namespace mp::obs {

namespace {

std::atomic<uint64_t> g_dropped{0};
std::atomic<size_t> g_capacity{8192};

// One thread's span ring. Only the owning thread writes; drains take the
// global registry mutex plus the buffer's own lock so a drain racing the
// owner is safe. The records sit in a deque: it grows in small blocks and
// never copies, so a long run that never drains has no peak-RSS step where
// a doubling vector would reallocate (~0.5 MiB at 4,096 spans).
struct ThreadBuffer {
  std::mutex mu;
  uint32_t index = 0;     // registration order
  uint64_t next_seq = 0;  // per-thread sequence, survives drains
  size_t capacity = 0;
  std::deque<SpanRecord> records;
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // never freed
};

BufferRegistry& buffer_registry() {
  static auto* r = new BufferRegistry();  // leaked: drains at process end
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* p = owned.get();
    p->capacity = g_capacity.load(std::memory_order_relaxed);
    BufferRegistry& reg = buffer_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    p->index = static_cast<uint32_t>(reg.buffers.size());
    reg.buffers.push_back(std::move(owned));
    return p;
  }();
  return *buf;
}

}  // namespace

uint64_t dropped_spans() { return g_dropped.load(std::memory_order_relaxed); }
void set_span_capacity(size_t records) {
  g_capacity.store(records == 0 ? 1 : records, std::memory_order_relaxed);
}

void record_span(PhaseId phase, uint64_t start_ns, uint64_t dur_ns) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.records.size() >= buf.capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.records.push_back(
      SpanRecord{phase, start_ns, dur_ns, buf.index, buf.next_seq++});
}

std::vector<SpanRecord> drain_all_spans() {
  std::vector<SpanRecord> out;
  BufferRegistry& reg = buffer_registry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    out.insert(out.end(), buf->records.begin(), buf->records.end());
    buf->records.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.seq < b.seq;
            });
  return out;
}

std::string spans_to_json(const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const SpanRecord& s : spans) {
    out += "{\"phase\": \"" + phase_name(s.phase) + "\"";
    out += ", \"start_ns\": " + std::to_string(s.start_ns);
    out += ", \"dur_ns\": " + std::to_string(s.dur_ns);
    out += ", \"thread\": " + std::to_string(s.thread);
    out += ", \"seq\": " + std::to_string(s.seq);
    out += "}\n";
  }
  return out;
}

bool write_trace_json(const std::string& path) {
  const std::string body = spans_to_json(drain_all_spans());
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mp::obs
