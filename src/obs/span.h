// Timing scopes and lightweight trace spans over per-thread ring buffers.
//
// obs::Scope is the one timing primitive: an RAII interval labelled with
// an interned PhaseId (src/obs/phase.h). On destruction it adds its
// duration to an optional PhaseClock (util/timer.h). A *traced* phase (a
// TracedPhase: a coarse scope such as `repair.explore`) also records one
// span and one `<phase>.latency_ns` histogram sample, both only while
// obs::enabled(). A *clock-only* phase (a plain PhaseId: the per-probe
// repair phases) only feeds the clock, so it costs two clock reads and
// never enters the span ring.
//
// A span (phase, start_ns, dur_ns) goes into the calling thread's
// fixed-capacity ring buffer under that buffer's own, uncontended lock
// (the buffer is registered once, under a global mutex, on the thread's
// first span). Buffers outlive their threads, so a worker pool's spans
// survive until drained.
//
// drain_all() collects and clears every thread's buffer and returns the
// records in a deterministic order — (start_ns, thread, seq), where
// `thread` is the buffer's registration index and `seq` the per-thread
// record sequence — so two drains over the same records always produce
// the same merged trace (pinned by tests/obs_test.cpp). write_trace_json
// renders a drain as a JSON-lines trace log.
//
// Spans record whenever obs::enabled() is on. A full ring drops new
// records and counts them in dropped_spans() — tracing is bounded, never a
// memory leak.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "obs/phase.h"
#include "util/timer.h"

namespace mp::obs {

struct SpanRecord {
  PhaseId phase = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t thread = 0;  // buffer registration index
  uint64_t seq = 0;     // per-thread record sequence
};

// Monotonic nanoseconds (steady clock).
inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Records a span into the calling thread's ring buffer. Exposed directly
// (besides Scope) so tests can inject records with synthetic timestamps.
void record_span(PhaseId phase, uint64_t start_ns, uint64_t dur_ns);

// Collects and clears every thread's buffer; deterministic order (see
// file comment).
std::vector<SpanRecord> drain_all_spans();
// Records refused because a ring was full (cumulative).
uint64_t dropped_spans();
// Per-thread ring capacity (records). Applies to buffers created after
// the call; for tests.
void set_span_capacity(size_t records);

// Renders a drain as JSON lines:
//   {"phase":"history lookups","start_ns":...,"dur_ns":...,"thread":0,"seq":1}
std::string spans_to_json(const std::vector<SpanRecord>& spans);
// drain_all_spans() + append to `path` (creating it); returns false on
// I/O failure.
bool write_trace_json(const std::string& path);

// A phase whose scopes publish a span and a `<name>.latency_ns` sample.
// Construction interns the name (under a mutex), so build one per site
// and cache it in a function-local static. The histogram registers with
// the first sample, so a phase that never publishes (obs disabled) adds
// nothing to the registry.
class TracedPhase {
 public:
  explicit TracedPhase(std::string_view name)
      : id_(phase_id(name)), latency_name_(std::string(name) + ".latency_ns") {}
  PhaseId id() const { return id_; }
  Histogram& latency() const {
    Histogram* h = latency_.load(std::memory_order_acquire);
    if (h == nullptr) {
      h = &Registry::global().histogram(latency_name_);
      latency_.store(h, std::memory_order_release);
    }
    return *h;
  }

 private:
  PhaseId id_;
  std::string latency_name_;
  mutable std::atomic<Histogram*> latency_{nullptr};
};

// RAII timing scope; see the file comment.
class Scope {
 public:
  // Clock-only phase.
  explicit Scope(PhaseId phase, PhaseClock* clock = nullptr)
      : phase_(phase), traced_(nullptr), clock_(clock), start_ns_(now_ns()) {}
  // Traced phase.
  explicit Scope(const TracedPhase& phase, PhaseClock* clock = nullptr)
      : phase_(phase.id()),
        traced_(&phase),
        clock_(clock),
        start_ns_(now_ns()) {}
  ~Scope() {
    if (clock_ == nullptr && traced_ == nullptr) return;
    const uint64_t dur_ns = now_ns() - start_ns_;
    if (clock_ != nullptr) {
      clock_->add(phase_, static_cast<double>(dur_ns) / 1e9);
    }
    if (traced_ != nullptr && enabled()) {
      traced_->latency().record(dur_ns);
      record_span(phase_, start_ns_, dur_ns);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Seconds since the scope opened.
  double seconds() const {
    return static_cast<double>(now_ns() - start_ns_) / 1e9;
  }

 private:
  PhaseId phase_;
  const TracedPhase* traced_;  // null for a clock-only phase
  PhaseClock* clock_;
  uint64_t start_ns_;
};

}  // namespace mp::obs
