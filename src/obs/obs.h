// Unified observability: the process-wide metrics registry.
//
// Every layer of the system registers its instruments here once, by name
// (naming convention: `layer.component.metric`, catalog in
// src/obs/README.md), and records into them lock-free on the hot path:
//
//   - Counter: monotonic u64, relaxed-atomic add. Never resets — windowed
//     numbers come from Snapshot::delta (the registry-level answer to the
//     old "Engine counters survive compact() with no way to zero them"
//     inconsistency; pinned by tests/obs_test.cpp).
//   - Gauge: last-write-wins i64 level (log sizes).
//   - Histogram: log2-bucketed u64 distribution (latencies in ns). One
//     relaxed-atomic add per record; quantiles (p50/p99) are extracted
//     from the bucket counts at snapshot time, never on the record path.
//
// Registration takes a mutex (once per name per process); recording never
// does. Instrument addresses are stable for the life of the process, so
// call sites cache `Counter&` references in function-local statics.
//
// `snapshot()` copies every instrument's current value into a plain
// `Snapshot`; `Snapshot::delta(since)` subtracts an earlier snapshot
// (counters and histogram buckets subtract, gauges keep the current
// level) — the primitive behind per-scenario metric sections and
// "what did this window cost" queries. `to_json()` renders a snapshot as
// the stable JSON document tools/check.sh gates on and run_bench.sh
// embeds into BENCH_engine.json.
//
// `set_enabled(false)` turns off every *publishing* site (Engine's
// counter publication, span recording, latency histograms) — evaluation
// behaviour is identical either way, which the differential harness pins
// (obs-on vs obs-off event logs and repair output are byte-identical on
// all five scenarios). Instruments themselves stay registered.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mp::obs {

// Master switch for the publishing sites (default on). Recording sites
// that feed the registry check this; pure accessors do not.
bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  void add(uint64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  void inc() noexcept { add(1); }
  uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Plain-value copy of a histogram, as captured by a snapshot (and as
// produced by subtracting two snapshots).
struct HistogramData {
  std::vector<uint64_t> buckets;  // kBuckets entries
  uint64_t count = 0;
  uint64_t sum = 0;
  // Smallest and largest recorded sample (both 0 when count == 0). A
  // Snapshot::delta window whose base already held samples cannot
  // subtract these: it keeps the cumulative range, which still contains
  // every sample of the window but may be wider than the window's own.
  uint64_t min = 0;
  uint64_t max = 0;
  // q in [0,1]: rank-interpolated quantile from the bucket counts. The
  // target rank's bucket is found by cumulative count; the value is
  // linearly interpolated between the bucket's bounds by the rank's
  // position inside it, then clamped to [min, max], so no quantile lies
  // outside the recorded range. Exact for a single sample (every
  // quantile is that sample) and for equal samples.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

 private:
  double bucket_quantile(double q) const;  // before the [min, max] clamp
};

// Log2-bucketed histogram: bucket 0 holds the value 0, bucket b >= 1
// holds [2^(b-1), 2^b). 65 buckets cover the full u64 range, so a
// nanosecond latency needs no configuration. Recording is one relaxed
// fetch_add on the bucket plus count/sum bookkeeping and relaxed CAS
// loops for min/max (histograms record once per phase, never per
// packet); all math happens at snapshot time.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  // Bucket index of a value: 0 for 0, otherwise bit_width(v).
  static size_t bucket_of(uint64_t v) noexcept {
    size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  // [lower, upper) bounds of bucket b (upper is exclusive; bucket 0 is
  // the point value 0).
  static uint64_t bucket_lower(size_t b) noexcept {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }
  static uint64_t bucket_upper(size_t b) noexcept {
    if (b == 0) return 1;
    if (b >= 64) return ~uint64_t{0};
    return uint64_t{1} << b;
  }

  void record(uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  // Plain-value copy (what a snapshot captures).
  HistogramData data() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

enum class Kind : uint8_t { Counter, Gauge, Histogram };

struct InstrumentValue {
  Kind kind = Kind::Counter;
  int64_t value = 0;   // Counter (as u64 in range) / Gauge level
  HistogramData hist;  // Kind::Histogram only
};

struct Snapshot {
  std::map<std::string, InstrumentValue> values;

  // This snapshot minus `since`: counters subtract (clamped at 0),
  // histogram buckets/count/sum subtract (min/max stay cumulative, see
  // HistogramData), gauges keep this snapshot's level. Instruments absent
  // from `since` pass through unchanged.
  Snapshot delta(const Snapshot& since) const;

  const InstrumentValue* find(std::string_view name) const {
    auto it = values.find(std::string(name));
    return it == values.end() ? nullptr : &it->second;
  }
  uint64_t counter(std::string_view name) const {
    const InstrumentValue* v = find(name);
    return v != nullptr && v->kind == Kind::Counter
               ? static_cast<uint64_t>(v->value)
               : 0;
  }
  int64_t gauge(std::string_view name) const {
    const InstrumentValue* v = find(name);
    return v != nullptr && v->kind == Kind::Gauge ? v->value : 0;
  }
  const HistogramData* histogram(std::string_view name) const {
    const InstrumentValue* v = find(name);
    return v != nullptr && v->kind == Kind::Histogram ? &v->hist : nullptr;
  }
};

class Registry {
 public:
  // The process-wide registry every layer records into.
  static Registry& global();

  // Registered once by name: the first call creates the instrument, every
  // later call with the same name returns the same address. A name
  // re-requested as a different kind returns a process-wide dummy (never
  // exported) rather than aliasing storage of the wrong shape.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  Snapshot snapshot() const;
  size_t size() const;

 private:
  struct Entry;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_;
};

// JSON rendering of a snapshot:
//   {"counters": {...}, "gauges": {...},
//    "histograms": {"name": {"count":n,"sum":s,"min":..,"max":..,
//                            "mean":..,"p50":..,"p90":..,"p99":..}}}
std::string to_json(const Snapshot& snap, int indent = 0);
// Shorthand: JSON of the global registry's current snapshot.
std::string snapshot_json();

}  // namespace mp::obs
