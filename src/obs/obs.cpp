#include "obs/obs.h"

#include <algorithm>
#include <cstdio>

namespace mp::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Histogram quantiles.
// ---------------------------------------------------------------------------

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  // One sample: the sum is that sample, exactly. The clamp below covers
  // this too, except in a delta window, which keeps the cumulative range.
  if (count == 1) return static_cast<double>(sum);
  // Interpolating inside a log2 bucket can land anywhere in the bucket's
  // octave (two 76.7 ms samples read p99 133.5 ms); the recorded range
  // bounds every true quantile. min > max only in a snapshot that raced
  // the first record's min/max update: no range to clamp to yet.
  const double v = bucket_quantile(q);
  if (min > max) return v;
  return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
}

double HistogramData::bucket_quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, count] (nearest-rank with interpolation inside the
  // bucket that crosses it).
  const double rank = q * static_cast<double>(count);
  double cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(buckets[b]);
    if (cum + 1e-9 < rank) continue;
    const double lo = static_cast<double>(Histogram::bucket_lower(b));
    const double hi = static_cast<double>(Histogram::bucket_upper(b));
    const double frac =
        buckets[b] == 0 ? 0.0 : (rank - prev) / static_cast<double>(buckets[b]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  // rank beyond the recorded mass (rounding): the top non-empty bucket.
  for (size_t b = buckets.size(); b-- > 0;) {
    if (buckets[b] != 0) {
      return static_cast<double>(Histogram::bucket_upper(b));
    }
  }
  return 0.0;
}

HistogramData Histogram::data() const {
  HistogramData d;
  d.buckets.resize(kBuckets);
  for (size_t b = 0; b < kBuckets; ++b) d.buckets[b] = bucket(b);
  d.count = count();
  d.sum = sum();
  if (d.count > 0) {
    d.min = min_.load(std::memory_order_relaxed);
    d.max = max_.load(std::memory_order_relaxed);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

struct Registry::Entry {
  Kind kind = Kind::Counter;
  Counter counter;
  Gauge gauge;
  Histogram hist;
};

Registry& Registry::global() {
  static Registry r;
  return r;
}

namespace {
// Kind-mismatch sinks: never registered, never exported.
Counter& dummy_counter() {
  static auto* c = new Counter();
  return *c;
}
Gauge& dummy_gauge() {
  static auto* g = new Gauge();
  return *g;
}
Histogram& dummy_histogram() {
  static auto* h = new Histogram();
  return *h;
}
}  // namespace

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    auto e = std::make_unique<Entry>();
    e->kind = Kind::Counter;
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  Entry& e = *it->second;
  return e.kind == Kind::Counter ? e.counter : dummy_counter();
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    auto e = std::make_unique<Entry>();
    e->kind = Kind::Gauge;
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  Entry& e = *it->second;
  return e.kind == Kind::Gauge ? e.gauge : dummy_gauge();
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    auto e = std::make_unique<Entry>();
    e->kind = Kind::Histogram;
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  Entry& e = *it->second;
  return e.kind == Kind::Histogram ? e.hist : dummy_histogram();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : entries_) {
    InstrumentValue v;
    v.kind = e->kind;
    switch (e->kind) {
      case Kind::Counter:
        v.value = static_cast<int64_t>(e->counter.value());
        break;
      case Kind::Gauge:
        v.value = e->gauge.value();
        break;
      case Kind::Histogram:
        v.hist = e->hist.data();
        break;
    }
    snap.values.emplace(name, std::move(v));
  }
  return snap;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// Snapshot delta.
// ---------------------------------------------------------------------------

Snapshot Snapshot::delta(const Snapshot& since) const {
  Snapshot out = *this;
  for (auto& [name, v] : out.values) {
    auto it = since.values.find(name);
    if (it == since.values.end() || it->second.kind != v.kind) continue;
    const InstrumentValue& old = it->second;
    switch (v.kind) {
      case Kind::Counter:
        v.value = v.value > old.value ? v.value - old.value : 0;
        break;
      case Kind::Gauge:
        break;  // gauges are levels: keep the current one
      case Kind::Histogram: {
        const size_t n = std::min(v.hist.buckets.size(),
                                  old.hist.buckets.size());
        for (size_t b = 0; b < n; ++b) {
          v.hist.buckets[b] = v.hist.buckets[b] > old.hist.buckets[b]
                                  ? v.hist.buckets[b] - old.hist.buckets[b]
                                  : 0;
        }
        v.hist.count =
            v.hist.count > old.hist.count ? v.hist.count - old.hist.count : 0;
        v.hist.sum = v.hist.sum > old.hist.sum ? v.hist.sum - old.hist.sum : 0;
        if (v.hist.count == 0) v.hist.min = v.hist.max = 0;
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON export.
// ---------------------------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_pad(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

std::string to_json(const Snapshot& snap, int indent) {
  // Three stable sections, each sorted by name (std::map order).
  std::string out = "{";
  const char* section_names[3] = {"counters", "gauges", "histograms"};
  const Kind kinds[3] = {Kind::Counter, Kind::Gauge, Kind::Histogram};
  for (int s = 0; s < 3; ++s) {
    append_pad(out, indent, 1);
    append_escaped(out, section_names[s]);
    out += ": {";
    bool first = true;
    for (const auto& [name, v] : snap.values) {
      if (v.kind != kinds[s]) continue;
      if (!first) out += ",";
      first = false;
      append_pad(out, indent, 2);
      append_escaped(out, name);
      out += ": ";
      if (v.kind == Kind::Histogram) {
        out += "{\"count\": " + std::to_string(v.hist.count);
        out += ", \"sum\": " + std::to_string(v.hist.sum);
        out += ", \"min\": " + std::to_string(v.hist.min);
        out += ", \"max\": " + std::to_string(v.hist.max);
        out += ", \"mean\": ";
        append_double(out, v.hist.mean());
        out += ", \"p50\": ";
        append_double(out, v.hist.p50());
        out += ", \"p90\": ";
        append_double(out, v.hist.p90());
        out += ", \"p99\": ";
        append_double(out, v.hist.p99());
        out += "}";
      } else {
        out += std::to_string(v.value);
      }
    }
    if (!first) append_pad(out, indent, 1);
    out += "}";
    if (s != 2) out += ",";
  }
  append_pad(out, indent, 0);
  out += "}";
  return out;
}

std::string snapshot_json() {
  return to_json(Registry::global().snapshot(), 2);
}

}  // namespace mp::obs
