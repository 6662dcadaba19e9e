#!/usr/bin/env bash
# The tier-1 gate in one command: configure, build, run the labelled ctest
# suites, the smoke tool and a Release-mode bench smoke guarding the
# provenance-recording fast path (ROADMAP "Tier-1 verify"). Usage:
#   tools/check.sh [build-dir]
# The bench smoke runs short provenance-on PacketIn benchmarks — the
# single-insert row and the 64-tuple batched-arrival row (insert_batch
# over the 32-byte record) — and fails if the batched recording path
# drops below CHECK_BENCH_FLOOR tuples/sec. The default floor (FLOOR
# below, 550k) is ~65% of the batched row's median best-of-3 rate on a
# shared 4-vCPU x86-64 host (~850k t/s over ten invocations, individual
# invocations 0.78M-1.43M): short runs have been observed to dip ~35%
# below their quiet-window rate, so the floor is asserted against the
# best of several repetitions and sits that far below the typical rate.
# It trips on regressions of the path's own cost class — the
# pre-interning recording path (full Tuple copies per event) ran ~3.4x
# below the PR 7 path on a 1-CPU box (~279k vs ~937k t/s) — not on a
# single extra allocation per event, which measures inside this host's
# window-to-window noise. The 40-byte record cannot come
# back silently: event_log.h static_asserts sizeof(Event) == 32. The
# smoke also fails if the serialized event footprint exceeds
# CHECK_BENCH_BYTES_CEILING bytes/event (default 64; the 32-byte record
# layout measures ~62.4 on this workload, and the number is
# deterministic, not a throughput). Skip it with CHECK_BENCH=0; it is
# skipped automatically when google-benchmark was not found at
# configure time.
# After the smoke, every examples/*.cpp binary runs once; a non-zero exit
# or a crash fails the script.
# Between the smoke and the bench smoke, the metrics gate reruns the Q1
# pipeline with --metrics-out and validates the obs snapshot JSON
# (parseable, core eval.engine.* counters, sdn.memo.hits and repair
# latency histograms present and non-zero, per-scenario delta sane, and
# exactly one sdn.base.builds per pipeline: every world of a scenario runs
# on one static base, src/sdn/README.md "World base") — so
# the bench floor is always measured with observability enabled. The
# trace gate then reruns it with --trace-out and checks that each traced
# interval is recorded once, by one scope (src/obs/span.h): one
# scenario.pipeline and one repair.backtest span, equal non-zero
# repair.generate and repair.explore counts, and no span of a clock-only
# repair phase.
# After the bench smoke, the e2e smoke runs the end-to-end benchmark's
# quick suite (e2ebench/run_e2e.py --quick: two pipeline rounds per
# workload plus one traced round, ~15 s once bench_e2e is built). It
# checks every golden fingerprint in e2ebench/goldens.json, so the repair
# output must stay byte-identical. Skip it with CHECK_E2E=0.
# With CHECK_CRASH=1 the script additionally runs the exhaustive
# crash-recovery sweep (every truncation offset of the newest segment,
# all scenarios) from storage_test:
#   CHECK_CRASH=1 tools/check.sh
# With CHECK_TSAN=1 the script additionally configures a side build
# directory with -fsanitize=thread (CMake option MP_TSAN) and runs the
# `concurrency`-labelled suites (the backtester's candidate-replay pool)
# under ThreadSanitizer:
#   CHECK_TSAN=1 tools/check.sh
# With CHECK_ASAN=1 the script additionally configures a side build
# directory with -fsanitize=address,undefined (CMake option MP_ASAN) and
# runs the whole tier-1 gate under AddressSanitizer and UBSan (candidate
# programs splice rule copies that share the base program's names and
# expression trees; parsers and segment decoders read outside input),
# then runs the examples in that build too.
# It gates three tests whose failure mode only ASan can see:
#   - storage_test's SegmentReader.HostileSectionsWithValidCrcs-
#     EndThePrefixCleanly: CRC-valid segment sections whose entries and
#     name records lie about their lengths and counts must end the valid
#     prefix without an out-of-bounds read;
#   - storage_test's SegmentReader.SeededCorruptionSweepEndsCleanly: 600
#     seeded bit flips and rewritten length and count fields (CRCs
#     recomputed) across a real segment's file header, chunk headers,
#     entries and name records must end in a clean rejection or a
#     truncated valid prefix, in the reader and in recovery, without an
#     out-of-bounds read;
#   - history_test's EventLogCheckpoint.DecodedCausesSurviveInterleaved-
#     Decodes, the nested-walk test: an outer EventLog::for_each_event
#     view holds its causes span across a complete inner walk, and a span
#     left dangling by that inner walk is a heap-use-after-free.
#   CHECK_ASAN=1 tools/check.sh
# With CHECK_FAULTS=1 the script additionally configures a side build
# directory with -DMP_FAULTS=ON (failpoints compiled in, src/fault) and
# runs the `fault`-labelled suites — the deterministic fault-injection
# sweeps of tests/fault_test.cpp. The MAIN build keeps failpoints
# compiled out, so the bench floor above doubles as the proof that the
# MP_FAILPOINT macro is zero-cost when off:
#   CHECK_FAULTS=1 tools/check.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

# Runs every example built in build directory $1 (one per examples/*.cpp).
run_examples() {
  local src name
  for src in "$REPO_ROOT"/examples/*.cpp; do
    name="example_$(basename "$src" .cpp)"
    "$1/$name" >/dev/null
    echo "$name: OK"
  done
}

# Warning gate: the main build compiles with -Wall -Wextra (root
# CMakeLists.txt) and treats every warning as an error.
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$BUILD_DIR" -j

(cd "$BUILD_DIR" && ctest -L tier1 --output-on-failure -j)

# The equivalence harness and the KS oracle pins (the backtester's integer
# KS against the string-keyed reference, tests/ks_oracle.h) gate every
# change on their own labels too, so a relabelling mistake in CMake can
# never silently drop them from the gate (--no-tests=error: a label that
# matches nothing fails).
(cd "$BUILD_DIR" && ctest -L differential --output-on-failure -j)
(cd "$BUILD_DIR" && ctest -L oracle --no-tests=error --output-on-failure -j)

echo "--- smoke (Q1 pipeline) ---"
"$BUILD_DIR/smoke" Q1

echo "--- examples ---"
run_examples "$BUILD_DIR"

# Metrics gate: the smoke run again with --metrics-out must produce a
# parseable obs snapshot whose core instruments are present and non-zero
# (obs enabled is the default — this is the "observability on" row of the
# gate; the bench floor below also runs with obs on).
echo "--- metrics gate (obs snapshot JSON) ---"
METRICS="$(mktemp)"
trap 'rm -f "$METRICS"' EXIT
"$BUILD_DIR/smoke" Q1 --metrics-out="$METRICS" >/dev/null
python3 - "$METRICS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert set(doc) == {"process", "scenarios"}, f"unexpected sections: {set(doc)}"
proc = doc["process"]
for section in ("counters", "gauges", "histograms"):
    assert section in proc, f"missing section {section}"
counters, hists = proc["counters"], proc["histograms"]
core_counters = ["eval.engine.steps", "eval.engine.rule_firings",
                 "eval.engine.log_events_appended",
                 "eval.engine.trigger_attempts"]
for name in core_counters:
    assert counters.get(name, 0) > 0, f"core counter {name} missing or zero"
# The static-path memo (src/sdn/README.md): Q1's candidate worlds must
# book some packets from the recorded world's walks instead of walking.
assert counters.get("sdn.memo.hits", 0) > 0, "sdn.memo.hits missing or zero"
core_hists = ["repair.explore.latency_ns", "repair.generate.latency_ns",
              "repair.backtest.latency_ns", "scenario.pipeline.latency_ns"]
for name in core_hists:
    h = hists.get(name)
    assert h and h["count"] > 0, f"core histogram {name} missing or empty"
    # Quantiles are exported at 6 significant digits, min/max exactly.
    slack = 1e-5 * h["max"]
    assert h["min"] - slack <= h["p50"] <= h["p99"] <= h["max"] + slack, \
        f"{name}: quantiles outside [min, max] or p50 > p99"
q1 = doc["scenarios"]["Q1"]
assert q1["histograms"]["scenario.pipeline.latency_ns"]["count"] == 1, \
    "per-scenario delta should hold exactly one pipeline run"
# One static build per pipeline: the recorded world and every candidate
# world share the harness's WorldBase (src/sdn/README.md, "World base").
builds = q1["counters"].get("sdn.base.builds", 0)
assert builds == 1, f"sdn.base.builds per pipeline: {builds}, want exactly 1"
print(f"metrics gate: {len(counters)} counters, {len(hists)} histograms, "
      "core instruments present")
EOF

# Trace gate: one span per traced interval, none for clock-only phases.
echo "--- trace gate (span names and counts) ---"
TRACE="$(mktemp)"
trap 'rm -f "$METRICS" "$TRACE"' EXIT
"$BUILD_DIR/smoke" Q1 --trace-out="$TRACE" >/dev/null
python3 - "$TRACE" <<'EOF'
import collections, json, sys
spans = collections.Counter(json.loads(line)["phase"]
                            for line in open(sys.argv[1]) if line.strip())
for name in ("scenario.pipeline", "repair.backtest"):
    assert spans[name] == 1, f"expected one {name} span, got {spans[name]}"
gen, explore = spans["repair.generate"], spans["repair.explore"]
assert gen > 0 and gen == explore, \
    f"repair.generate/explore spans: {gen} vs {explore} (want equal, > 0)"
clock_only = ("history lookups", "constraint solving", "patch generation",
              "replay")
leaked = {name: spans[name] for name in clock_only if spans[name]}
assert not leaked, f"clock-only phases in the trace: {leaked}"
print("trace gate: " + ", ".join(f"{k}={v}" for k, v in sorted(spans.items())))
EOF

# Release-mode bench smoke: the provenance-recording fast path must stay
# above the floor (the default build type is Release, so the main build's
# bench binary is the right artifact).
if [[ "${CHECK_BENCH:-1}" == "1" && -x "$BUILD_DIR/bench_overhead" ]]; then
  echo "--- bench smoke (provenance recording floor + event-size ceiling) ---"
  FLOOR="${CHECK_BENCH_FLOOR:-550000}"
  BYTES_CEILING="${CHECK_BENCH_BYTES_CEILING:-64}"
  RAW="$(mktemp)"
  trap 'rm -f "$RAW" "$METRICS" "$TRACE"' EXIT
  "$BUILD_DIR/bench_overhead" \
    --benchmark_filter='BM_PacketInProcessing/1$|BM_PacketInBatchedArrival/1$' \
    --benchmark_min_time=0.2 --benchmark_repetitions=3 \
    --benchmark_out_format=json --benchmark_out="$RAW" >/dev/null
  python3 - "$RAW" "$FLOOR" "$BYTES_CEILING" <<'EOF'
import json, sys
raw = json.load(open(sys.argv[1]))
floor, ceiling = float(sys.argv[2]), float(sys.argv[3])

def reps(name):
    out = [b for b in raw["benchmarks"]
           if b["name"] == name and b.get("run_type") != "aggregate"]
    assert out, f"bench smoke: {name} missing from output"
    return out

# Floor: the batched-arrival recording path (insert_batch over the
# 32-byte record), best of the repetitions — a regression of the path
# itself depresses every repetition, a noisy window only some.
batched = max(b["items_per_second"] for b in reps("BM_PacketInBatchedArrival/1"))
single = max(b["items_per_second"] for b in reps("BM_PacketInProcessing/1"))
print(f"provenance_on: batched {batched:,.0f} t/s, single {single:,.0f} t/s "
      f"(floor {floor:,.0f} on batched)")
if batched < floor:
    sys.exit(f"bench smoke FAILED: batched provenance-on throughput "
             f"{batched:,.0f} below floor {floor:,.0f} tuples/s")
# Ceiling: serialized footprint of the recording format. Deterministic
# for the workload, so no noise tolerance — any layout growth fails.
for name in ("BM_PacketInProcessing/1", "BM_PacketInBatchedArrival/1"):
    bpe = reps(name)[0].get("bytes_per_event")
    assert bpe is not None, f"bench smoke: {name} reported no bytes_per_event"
    print(f"{name}: {bpe:.1f} bytes/event (ceiling {ceiling:.0f})")
    if bpe > ceiling:
        sys.exit(f"bench smoke FAILED: {name} serialized footprint "
                 f"{bpe:.1f} bytes/event exceeds ceiling {ceiling:.0f}")
EOF
fi

if [[ "${CHECK_E2E:-1}" == "1" ]]; then
  echo "--- e2e smoke (repair-output goldens) ---"
  python3 "$REPO_ROOT/e2ebench/run_e2e.py" --quick
fi

if [[ "${CHECK_CRASH:-0}" == "1" ]]; then
  echo "--- crash-recovery sweep (every truncation offset, all scenarios) ---"
  MP_CRASH_SWEEP=all "$BUILD_DIR/storage_test" \
    --gtest_filter='*CrashRecovery*'
fi

if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  echo "--- ThreadSanitizer (concurrency suites) ---"
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DMP_TSAN=ON
  cmake --build "$TSAN_DIR" --target backtest_pool_test -j
  (cd "$TSAN_DIR" && ctest -L concurrency --output-on-failure)
fi

if [[ "${CHECK_ASAN:-0}" == "1" ]]; then
  echo "--- AddressSanitizer + UBSan (tier-1 suites) ---"
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DMP_ASAN=ON
  cmake --build "$ASAN_DIR" -j
  (cd "$ASAN_DIR" && UBSAN_OPTIONS=print_stacktrace=1 \
     ctest -L tier1 --output-on-failure -j)
  echo "--- examples (AddressSanitizer + UBSan) ---"
  UBSAN_OPTIONS=print_stacktrace=1 run_examples "$ASAN_DIR"
fi

if [[ "${CHECK_FAULTS:-0}" == "1" ]]; then
  echo "--- fault injection (failpoint sweeps, -DMP_FAULTS=ON side build) ---"
  FAULTS_DIR="${BUILD_DIR}-faults"
  cmake -B "$FAULTS_DIR" -S "$REPO_ROOT" -DMP_FAULTS=ON
  cmake --build "$FAULTS_DIR" --target fault_test storage_test -j
  (cd "$FAULTS_DIR" && ctest -L fault --output-on-failure)
fi

echo "check.sh: OK"
