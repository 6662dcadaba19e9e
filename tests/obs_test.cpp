// Observability subsystem coverage (src/obs):
//   - registry: one instrument per name (dedup), kind mismatches return a
//     sink that never reaches the snapshot,
//   - histogram: log2 bucket placement, bucket bounds, quantiles on known
//     distributions (p50/p99), on a single sample and on equal samples
//     (exact), clamped to the recorded [min, max], snapshot JSON
//     well-formedness,
//   - snapshot/delta: counters and histogram buckets subtract, gauges
//     keep their current level — the contract that makes per-scenario
//     metric sections possible even though registry counters are
//     process-cumulative,
//   - spans: per-thread ring buffers merge in a deterministic
//     (start_ns, thread, seq) order regardless of drain timing; full
//     rings drop new records and count them,
//   - scopes: a traced phase feeds its clock, one span and one latency
//     sample, all with the same duration; a clock-only phase feeds only
//     its clock; obs::set_enabled(false) silences both but keeps the
//     clock; a null clock is allowed,
//   - phase interning: PhaseClock accumulates by dense id with the
//     string API preserved at the edges,
//   - engine pin: Engine accessor counters survive log compaction
//     unchanged, and publish_obs() pushes exactly the increment since
//     the previous publish into the registry.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "eval/engine.h"
#include "ndlog/parser.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "obs/span.h"
#include "test_util.h"
#include "util/timer.h"

namespace mp::obs {
namespace {

TEST(Registry, OneInstrumentPerName) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("test.registry.dedup");
  Counter& b = reg.counter("test.registry.dedup");
  EXPECT_EQ(&a, &b);
  const uint64_t before = a.value();
  b.add(3);
  EXPECT_EQ(a.value(), before + 3);
}

TEST(Registry, KindMismatchReturnsSink) {
  Registry& reg = Registry::global();
  reg.counter("test.registry.kind");
  Gauge& g = reg.gauge("test.registry.kind");  // wrong kind: sink
  g.set(42);
  const Snapshot snap = reg.snapshot();
  const InstrumentValue* v = snap.find("test.registry.kind");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, Kind::Counter);
  EXPECT_EQ(v->value, 0);
}

TEST(Histogram, BucketPlacement) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~uint64_t{0}), 64u);
  // Bounds bracket every member of the bucket.
  for (uint64_t v : {uint64_t{1}, uint64_t{7}, uint64_t{1000},
                     uint64_t{1} << 40}) {
    const size_t b = Histogram::bucket_of(v);
    EXPECT_GE(v, Histogram::bucket_lower(b));
    EXPECT_LE(v, Histogram::bucket_upper(b));
  }
}

TEST(Histogram, QuantilesOnKnownDistribution) {
  Histogram h;
  // 90 values in [8,15] (bucket 4), 10 values in [1024,2047] (bucket 11).
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1500);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.min, 10u);
  EXPECT_EQ(d.max, 1500u);
  EXPECT_EQ(d.sum, 90u * 10 + 10u * 1500);
  // p50 lands inside the low bucket, p99 inside the high one (and inside
  // the recorded range).
  EXPECT_GE(d.p50(), 8.0);
  EXPECT_LE(d.p50(), 15.0);
  EXPECT_GE(d.p99(), 1024.0);
  EXPECT_LE(d.p99(), 1500.0);
  EXPECT_DOUBLE_EQ(d.mean(), static_cast<double>(d.sum) / 100.0);
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  // One 76.7 ms latency sample, recorded in ns as the latency histograms
  // record it. Interpolating inside its log2 bucket [2^26, 2^27) reported
  // p50 ~100.7 ms; a single sample is its own every quantile.
  constexpr uint64_t kSample = 76'700'000;
  Histogram h;
  h.record(kSample);
  const HistogramData d = h.data();
  EXPECT_DOUBLE_EQ(d.p50(), static_cast<double>(kSample));
  EXPECT_DOUBLE_EQ(d.p99(), static_cast<double>(kSample));
}

TEST(Histogram, QuantilesStayInsideTheRecordedRange) {
  // Two equal 76.7 ms samples share the log2 bucket [67.1, 134.2) ms;
  // interpolating inside it reported p50 100.66 ms and p99 133.5 ms,
  // above every sample. Equal samples are every quantile exactly.
  constexpr uint64_t kSample = 76'700'000;
  Histogram twice;
  twice.record(kSample);
  twice.record(kSample);
  const HistogramData d = twice.data();
  EXPECT_DOUBLE_EQ(d.p50(), static_cast<double>(kSample));
  EXPECT_DOUBLE_EQ(d.p99(), static_cast<double>(kSample));

  // 10 us and 11 us share the bucket [8.2, 16.4) us: p50 interpolated to
  // 12.3 us before the clamp.
  Histogram pair;
  pair.record(10'000);
  pair.record(11'000);
  const HistogramData p = pair.data();
  for (double v : {p.p50(), p.p90(), p.p99()}) {
    EXPECT_GE(v, 10'000.0);
    EXPECT_LE(v, 11'000.0);
  }
}

TEST(Snapshot, DeltaSubtractsCountersKeepsGauges) {
  Registry& reg = Registry::global();
  Counter& c = reg.counter("test.delta.counter");
  Gauge& g = reg.gauge("test.delta.gauge");
  Histogram& h = reg.histogram("test.delta.hist");
  c.add(5);
  g.set(10);
  h.record(100);
  const Snapshot before = reg.snapshot();
  c.add(7);
  g.set(3);  // gauge goes *down*: delta must report the current level
  h.record(100);
  h.record(100000);
  const Snapshot after = reg.snapshot();
  const Snapshot d = after.delta(before);
  EXPECT_EQ(d.find("test.delta.counter")->value, 7);
  EXPECT_EQ(d.find("test.delta.gauge")->value, 3);
  const InstrumentValue* hv = d.find("test.delta.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->hist.count, 2u);
  EXPECT_EQ(hv->hist.sum, 100100u);
  // The base window already held a sample, so min/max cannot subtract:
  // the delta keeps the cumulative range, which still contains the
  // window's samples. (This histogram is process-wide, so earlier
  // records from other runs can only widen it.)
  EXPECT_LE(hv->hist.min, 100u);
  EXPECT_GE(hv->hist.max, 100000u);
  EXPECT_GE(hv->hist.p50(), static_cast<double>(hv->hist.min));
  EXPECT_LE(hv->hist.p99(), static_cast<double>(hv->hist.max));
}

TEST(Snapshot, JsonParsesAndHasSections) {
  Registry::global().counter("test.json.counter").inc();
  const std::string js = snapshot_json();
  // Structural sanity without a JSON parser: the three sections appear in
  // order and braces balance.
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"gauges\""), std::string::npos);
  EXPECT_NE(js.find("\"histograms\""), std::string::npos);
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < js.size(); ++i) {
    const char ch = js[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
    } else if (ch == '"') {
      in_str = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(Spans, DeterministicMergeAcrossThreads) {
  drain_all_spans();  // clear anything earlier tests recorded
  const PhaseId p = phase_id("test.span.merge");
  // Two injector threads with interleaved synthetic timestamps plus the
  // main thread; merge order must be (start_ns, thread, seq) no matter
  // how the threads raced.
  record_span(p, 50, 1);
  std::thread t1([&] {
    record_span(p, 10, 1);
    record_span(p, 30, 1);
  });
  t1.join();
  std::thread t2([&] {
    record_span(p, 20, 1);
    record_span(p, 30, 1);
  });
  t2.join();
  const std::vector<SpanRecord> spans = drain_all_spans();
  ASSERT_EQ(spans.size(), 5u);
  std::vector<uint64_t> starts;
  for (const SpanRecord& s : spans) starts.push_back(s.start_ns);
  EXPECT_EQ(starts, (std::vector<uint64_t>{10, 20, 30, 30, 50}));
  // The two 30s tie-break by thread registration index.
  EXPECT_LT(spans[2].thread, spans[3].thread);
  // A second drain over the same (now-empty) buffers is empty: drains
  // consume.
  EXPECT_TRUE(drain_all_spans().empty());
}

TEST(Spans, FullRingDropsAndCounts) {
  const uint64_t dropped_before = dropped_spans();
  set_span_capacity(4);
  const PhaseId p = phase_id("test.span.drop");
  std::thread t([&] {
    for (int i = 0; i < 10; ++i) record_span(p, i, 1);
  });
  t.join();
  set_span_capacity(8192);
  const std::vector<SpanRecord> spans = drain_all_spans();
  size_t ours = 0;
  for (const SpanRecord& s : spans) ours += s.phase == p;
  EXPECT_EQ(ours, 4u);
  EXPECT_EQ(dropped_spans() - dropped_before, 6u);
}

// Spins until the steady clock has moved, so a scope's duration is not 0.
void spin_ns(uint64_t ns) {
  const uint64_t t0 = now_ns();
  while (now_ns() - t0 < ns) {
  }
}

// Spans of `phase` in a drain.
std::vector<SpanRecord> spans_of(PhaseId phase) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : drain_all_spans()) {
    if (s.phase == phase) out.push_back(s);
  }
  return out;
}

uint64_t clock_ns(const mp::PhaseClock& clock, PhaseId phase) {
  return static_cast<uint64_t>(std::llround(clock.get(phase) * 1e9));
}

TEST(Scope, TracedFeedsClockSpanAndHistogramOnce) {
  set_enabled(true);
  drain_all_spans();
  const TracedPhase phase("test.scope.traced");
  mp::PhaseClock clock;
  {
    const Scope scope(phase, &clock);
    spin_ns(1000);
  }
  const std::vector<SpanRecord> spans = spans_of(phase.id());
  ASSERT_EQ(spans.size(), 1u);
  const HistogramData h =
      Registry::global().histogram("test.scope.traced.latency_ns").data();
  ASSERT_EQ(h.count, 1u);
  EXPECT_GE(spans[0].dur_ns, 1000u);
  EXPECT_EQ(h.sum, spans[0].dur_ns);
  EXPECT_EQ(clock_ns(clock, phase.id()), spans[0].dur_ns);
}

TEST(Scope, ClockOnlyPublishesNothing) {
  set_enabled(true);
  drain_all_spans();
  const PhaseId phase = phase_id("test.scope.clock_only");
  mp::PhaseClock clock;
  {
    const Scope scope(phase, &clock);
    spin_ns(1000);
  }
  EXPECT_GE(clock_ns(clock, phase), 1000u);
  EXPECT_TRUE(spans_of(phase).empty());
  EXPECT_EQ(Registry::global().snapshot().histogram(
                "test.scope.clock_only.latency_ns"),
            nullptr);
}

TEST(Scope, DisabledObsStillFeedsTheClock) {
  drain_all_spans();
  const TracedPhase traced("test.scope.off_traced");
  const PhaseId clock_only = phase_id("test.scope.off_clock_only");
  mp::PhaseClock clock;
  set_enabled(false);
  {
    const Scope a(traced, &clock);
    const Scope b(clock_only, &clock);
    spin_ns(1000);
  }
  set_enabled(true);
  EXPECT_GE(clock_ns(clock, traced.id()), 1000u);
  EXPECT_GE(clock_ns(clock, clock_only), 1000u);
  EXPECT_TRUE(spans_of(traced.id()).empty());
  EXPECT_TRUE(spans_of(clock_only).empty());
  EXPECT_EQ(Registry::global().snapshot().histogram(
                "test.scope.off_traced.latency_ns"),
            nullptr);
}

TEST(Scope, NullClockIsAllowed) {
  set_enabled(true);
  drain_all_spans();
  const TracedPhase traced("test.scope.null_clock");
  {
    const Scope a(traced);
    const Scope b(phase_id("test.scope.null_clock_only"));
    spin_ns(1000);
    EXPECT_GE(a.seconds(), 1e-6);
    EXPECT_GE(b.seconds(), 1e-6);
  }
  EXPECT_EQ(spans_of(traced.id()).size(), 1u);
  EXPECT_EQ(traced.latency().count(), 1u);
}

TEST(Phases, InternedIdsPreserveStringApi) {
  const PhaseId a = phase_id("test.phase.alpha");
  EXPECT_EQ(phase_id("test.phase.alpha"), a);
  EXPECT_EQ(phase_name(a), "test.phase.alpha");
  mp::PhaseClock clock;
  clock.add(a, 1.5);
  clock.add("test.phase.alpha", 0.5);
  clock.add("test.phase.beta", 2.0);
  EXPECT_DOUBLE_EQ(clock.get(a), 2.0);
  EXPECT_DOUBLE_EQ(clock.get("test.phase.alpha"), 2.0);
  EXPECT_DOUBLE_EQ(clock.total(), 4.0);
  const auto phases = clock.phases();
  ASSERT_EQ(phases.count("test.phase.beta"), 1u);
  EXPECT_DOUBLE_EQ(phases.at("test.phase.beta"), 2.0);
  mp::PhaseClock other;
  other.add(a, 1.0);
  clock.merge(other);
  EXPECT_DOUBLE_EQ(clock.get(a), 3.0);
}

TEST(EnginePin, CountersSurviveCompactAndPublishDeltas) {
  set_enabled(true);
  eval::Engine e(ndlog::parse_program(testutil::ring_program(6)),
                 testutil::with_segments("obs_engine_pin"));
  e.insert_batch(testutil::ring_trace(4, 8));
  const size_t steps = e.steps();
  const size_t firings = e.rule_firings();
  ASSERT_GT(firings, 0u);
  Registry& reg = Registry::global();
  const Snapshot before = reg.snapshot();
  e.publish_obs();
  const Snapshot mid = reg.snapshot();
  // First publish pushes the full engine totals into the registry.
  EXPECT_EQ(mid.delta(before).find("eval.engine.rule_firings")->value,
            static_cast<int64_t>(firings));
  // Compaction must not disturb the engine accessors (the historical
  // inconsistency this subsystem fixes: counters survive compact() and
  // delta() makes windows over them well-defined).
  EXPECT_GT(e.log().compact(0), 0u);
  EXPECT_GT(e.log().base_id(), 0u);
  EXPECT_EQ(e.steps(), steps);
  EXPECT_EQ(e.rule_firings(), firings);
  // Re-publishing with no new work adds nothing.
  e.publish_obs();
  EXPECT_EQ(reg.snapshot().delta(mid).find("eval.engine.rule_firings")->value,
            0);
  // More work publishes exactly the increment.
  e.insert_batch(testutil::ring_trace(4, 2));
  const size_t new_firings = e.rule_firings();
  ASSERT_GT(new_firings, firings);
  e.publish_obs();
  EXPECT_EQ(reg.snapshot().delta(mid).find("eval.engine.rule_firings")->value,
            static_cast<int64_t>(new_firings - firings));
}

}  // namespace
}  // namespace mp::obs
