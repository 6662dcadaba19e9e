#!/usr/bin/env bash
# Tracks the evaluation-engine perf trajectory: runs the join-heavy and
# PacketIn benchmarks from bench_overhead and writes BENCH_engine.json
# (tuples/sec + rule firings/sec, index path vs. forced full scans, and
# the resulting speedup; ns/PacketIn at two program sizes) at the repo
# root. Also embeds the obs registry
# snapshot of a smoke ALL run (`metrics_snapshot`) and per-scenario
# repair-latency percentiles Q1-Q5 (`repair_latency`, from the
# repair.explore/scenario.pipeline latency histograms). Usage:
#   tools/run_bench.sh [build-dir] [output-json]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT="${2:-$REPO_ROOT/BENCH_engine.json}"
BENCH="$BUILD_DIR/bench_overhead"

if [[ ! -x "$BENCH" ]]; then
  echo "building bench_overhead in $BUILD_DIR ..." >&2
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" >/dev/null
  cmake --build "$BUILD_DIR" --target bench_overhead -j >/dev/null
fi

RAW="$(mktemp)"
METRICS="$(mktemp)"
trap 'rm -f "$RAW" "$METRICS"' EXIT
# --benchmark_out: bench_overhead prints a storage-accounting preamble to
# stdout, so the JSON must go to a file.
"$BENCH" \
  --benchmark_filter='BM_JoinHeavyRuleFiring|BM_JoinHeavyBatchInsert|BM_PacketInProcessing|BM_PacketInBatchedArrival|BM_RepairHistoryProbe|BM_CascadeFanout|BM_PacketInPadded|BM_SegmentWrite$|BM_SegmentReload' \
  --benchmark_min_time=1 \
  --benchmark_out_format=json --benchmark_out="$RAW" >/dev/null

# The faulty-write row needs the failpoint sites compiled in, which the
# main build deliberately lacks (zero-cost-when-off): if a -faults side
# build with a bench binary exists (CHECK_FAULTS=1 tools/check.sh creates
# the tree; build bench_overhead in it to opt in), run BM_SegmentWriteFaulty
# there and splice its result into the same raw JSON.
FAULTY_BENCH="${BUILD_DIR}-faults/bench_overhead"
if [[ -x "$FAULTY_BENCH" ]]; then
  RAW_FAULTY="$(mktemp)"
  trap 'rm -f "$RAW" "$METRICS" "$RAW_FAULTY"' EXIT
  "$FAULTY_BENCH" \
    --benchmark_filter='BM_SegmentWriteFaulty' \
    --benchmark_min_time=1 \
    --benchmark_out_format=json --benchmark_out="$RAW_FAULTY" >/dev/null
  python3 - "$RAW" "$RAW_FAULTY" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    raw = json.load(f)
with open(sys.argv[2]) as f:
    faulty = json.load(f)
raw["benchmarks"].extend(faulty.get("benchmarks", []))
with open(sys.argv[1], "w") as f:
    json.dump(raw, f)
EOF
fi

# One smoke run over all scenarios with the obs registry dumped: the
# per-scenario delta sections carry each Q's repair-latency histograms.
if [[ ! -x "$BUILD_DIR/smoke" ]]; then
  cmake --build "$BUILD_DIR" --target smoke -j >/dev/null
fi
"$BUILD_DIR/smoke" ALL --metrics-out="$METRICS" >/dev/null

REPO_ROOT="$REPO_ROOT" python3 - "$RAW" "$OUT" "$METRICS" <<'EOF'
import json, os, subprocess, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

def rate(bench):
    return bench.get("items_per_second")

results = {}
for b in raw["benchmarks"]:
    results[b["name"]] = b

join = {}
for size in (1024, 8192):
    scan = results.get(f"BM_JoinHeavyRuleFiring/{size}/0")
    idx = results.get(f"BM_JoinHeavyRuleFiring/{size}/1")
    if not scan or not idx:
        continue
    join[str(size)] = {
        "full_scan_tuples_per_sec": rate(scan),
        "indexed_tuples_per_sec": rate(idx),
        "full_scan_firings_per_sec": scan.get("firings_per_sec"),
        "indexed_firings_per_sec": idx.get("firings_per_sec"),
        "speedup": rate(idx) / rate(scan) if rate(scan) else None,
    }

batch = {}
for size in (1024, 8192):
    loop = results.get(f"BM_JoinHeavyBatchInsert/{size}/0/manual_time")
    bat = results.get(f"BM_JoinHeavyBatchInsert/{size}/1/manual_time")
    if not loop or not bat:
        continue
    batch[str(size)] = {
        "single_insert_tuples_per_sec": rate(loop),
        "batch_insert_tuples_per_sec": rate(bat),
        "speedup": rate(bat) / rate(loop) if rate(loop) else None,
    }

history = {}
for size in (1024, 8192):
    scan = results.get(f"BM_RepairHistoryProbe/{size}/0")
    idx = results.get(f"BM_RepairHistoryProbe/{size}/1")
    if not scan or not idx:
        continue
    history[str(size)] = {
        "scan_lookups_per_sec": rate(scan),
        "indexed_lookups_per_sec": rate(idx),
        "speedup": rate(idx) / rate(scan) if rate(scan) else None,
    }

packetin = {}
for arg, key in ((0, "provenance_off"), (1, "provenance_on")):
    b = results.get(f"BM_PacketInProcessing/{arg}")
    if b:
        packetin[key] = {"tuples_per_sec": rate(b)}
        if b.get("bytes_per_event") is not None:
            packetin[key]["bytes_per_event"] = b["bytes_per_event"]
# The same workload arriving in 64-tuple bursts through insert_batch
# (insert() per tuple, one auto-compaction check per burst).
for arg, key in ((0, "batched_provenance_off"), (1, "batched_provenance_on")):
    b = results.get(f"BM_PacketInBatchedArrival/{arg}")
    if b:
        packetin[key] = {"tuples_per_sec": rate(b)}
        if b.get("bytes_per_event") is not None:
            packetin[key]["bytes_per_event"] = b["bytes_per_event"]

# Fig 10's program-size axis at the engine alone: Q1 plus 0 and 450
# PacketIn-triggered zone rules. Constant-keyed trigger dispatch should
# keep ns/PacketIn roughly flat across the two rows (a measured row, not
# a gate).
program_size = {}
for zones in (0, 450):
    b = results.get(f"BM_PacketInPadded/{zones}")
    if b and rate(b):
        program_size[str(zones)] = {
            "ns_per_packet_in": 1e9 / rate(b),
            "trigger_plans_per_packet_in":
                b.get("trigger_plans_per_packet_in"),
        }
if len(program_size) == 2:
    program_size["ratio_450_to_0"] = (program_size["450"]["ns_per_packet_in"]
                                      / program_size["0"]["ns_per_packet_in"])

# Past rows, hard-coded from earlier commits and boxes (history: they are
# not measured by this run). `pre_interning` pins the last
# string-carrying measurement (commit cc2d1c4: full Tuple/string/vector
# copies per event, ~30x recording tax); its bytes/event is the one field
# recomputed here, exactly, over this run's workload from the old entry
# layout (bytes_per_event_stringly in BM_PacketInProcessing). `before`
# pins the interned-tuple fast path as of PR 5 (commit fc62743,
# re-measured at the growth seed 86e81ed with the benchmark's max_steps
# fix — the earlier recorded 1.43M/s row predates that fix and measured a
# step-capped engine). `wave2` pins the PR 7 head (commit 315ee3e:
# durable segmented store) on the 1-CPU reference box.
on_bench = results.get("BM_PacketInProcessing/1", {})
past = {
    "pre_interning": {
        "commit": "cc2d1c4",
        "provenance_on_tuples_per_sec": 279110.33156083024,
        "provenance_off_tuples_per_sec": 8428444.258561634,
        "recording_tax": 8428444.258561634 / 279110.33156083024,
        "bytes_per_event": on_bench.get("bytes_per_event_stringly"),
    },
    "before": {
        "commit": "fc62743",
        "provenance_on_tuples_per_sec": 565667.0,
        "provenance_off_tuples_per_sec": 2781780.0,
        "recording_tax": 2781780.0 / 565667.0,
        "bytes_per_event": 77.41,
    },
    "wave2": {
        "commit": "315ee3e",
        "provenance_on_tuples_per_sec": 937152.2962907294,
        "bytes_per_event": 72.4,
    },
}

# Provenance-recording overhead of this run: single inserts (`after`) and
# 64-tuple batched arrival (`batched`), with speedups against the past
# rows above (cross-box ratios when this run is on another machine).
overhead = {}
on = packetin.get("provenance_on", {})
off = packetin.get("provenance_off", {})
if on.get("tuples_per_sec") and off.get("tuples_per_sec"):
    overhead["after"] = {
        "provenance_on_tuples_per_sec": on["tuples_per_sec"],
        "provenance_off_tuples_per_sec": off["tuples_per_sec"],
        "recording_tax": off["tuples_per_sec"] / on["tuples_per_sec"],
        "bytes_per_event": on.get("bytes_per_event"),
        "speedup_vs_before":
            on["tuples_per_sec"]
            / past["before"]["provenance_on_tuples_per_sec"],
        "speedup_vs_pre_interning":
            on["tuples_per_sec"]
            / past["pre_interning"]["provenance_on_tuples_per_sec"],
    }
    batched_on = packetin.get("batched_provenance_on", {})
    if batched_on.get("tuples_per_sec"):
        overhead["batched"] = {
            "provenance_on_tuples_per_sec": batched_on["tuples_per_sec"],
            "bytes_per_event": batched_on.get("bytes_per_event"),
            "speedup_vs_wave2":
                batched_on["tuples_per_sec"]
                / past["wave2"]["provenance_on_tuples_per_sec"],
        }

# Measured-region counters (bench/perf_counters.h). Hardware rows are
# present only when the kernel grants perf_event_open; the software
# fallback (getrusage + steady clock: cpu utilisation, fault and
# context-switch rates) is sampled regardless, so locked-down containers
# record those instead of just `available: false`.
perf = {}
for name, key in (("BM_PacketInProcessing/1", "packet_in_provenance_on"),
                  ("BM_PacketInBatchedArrival/1",
                   "packet_in_batched_provenance_on"),
                  ("BM_CascadeFanout/1", "cascade_provenance_on")):
    b = results.get(name, {})
    row = {k: b[k] for k in ("cycles_per_tuple", "instructions_per_tuple",
                             "cache_misses_per_tuple",
                             "branch_misses_per_tuple",
                             "cpu_utilisation", "minor_faults_per_mtuple",
                             "ctx_switches_per_sec") if b.get(k) is not None}
    if row:
        row["hardware"] = b.get("cycles_per_tuple") is not None
        perf[key] = row
perf_counters = perf if perf else {"available": False}

# Durable segment store (src/storage): write side is sequential
# group-commit bandwidth of checkpoint sections rotating into segment
# files (with inserts/sec for the same run, durability in the loop);
# read side is a cold reload — recovery scan + full mmap standalone
# decode — in events/sec, the rate that bounds crash-recovery time.
durable = {}
w = results.get("BM_SegmentWrite")
if w:
    durable["segment_write_mb_per_sec"] = (
        w["bytes_per_second"] / 1e6 if w.get("bytes_per_second") else None)
    durable["segment_write_inserts_per_sec"] = rate(w)
    durable["segment_files"] = w.get("segment_files")
r = results.get("BM_SegmentReload")
if r:
    durable["reload_events_per_sec"] = rate(r)
    durable["reload_store_events"] = r.get("events")

# Write bandwidth with a 1-in-1000 EINTR/short-write fault mix riding the
# retry loop (from the -faults side build's bench binary, when present —
# see the splice above). The delta vs durable_log is the retry overhead.
durable_faulty = {}
wf = results.get("BM_SegmentWriteFaulty")
if wf and not wf.get("error_occurred"):
    durable_faulty["segment_write_mb_per_sec"] = (
        wf["bytes_per_second"] / 1e6 if wf.get("bytes_per_second") else None)
    durable_faulty["segment_write_inserts_per_sec"] = rate(wf)
    durable_faulty["injected_faults"] = wf.get("injected_faults")
    if w and w.get("bytes_per_second") and wf.get("bytes_per_second"):
        durable_faulty["relative_to_fault_free"] = (
            wf["bytes_per_second"] / w["bytes_per_second"])

# Obs registry snapshot from the smoke ALL run: the process-cumulative
# section verbatim, plus per-scenario repair latency (p50/p99 of the
# repair.explore.latency_ns and scenario.pipeline.latency_ns histograms
# inside each scenario's snapshot delta) — the repair-as-a-service
# baseline the ROADMAP asks for.
metrics_snapshot = {}
repair_latency = {}
try:
    with open(sys.argv[3]) as f:
        mdoc = json.load(f)
    metrics_snapshot = mdoc.get("process", {})
    for scenario, snap in mdoc.get("scenarios", {}).items():
        hists = snap.get("histograms", {})
        row = {}
        for hname, key in (("repair.explore.latency_ns", "explore"),
                           ("repair.generate.latency_ns", "generate"),
                           ("repair.backtest.latency_ns", "backtest"),
                           ("scenario.pipeline.latency_ns", "pipeline")):
            h = hists.get(hname)
            if h and h.get("count"):
                row[key] = {"count": h["count"], "mean_ns": h["mean"],
                            "p50_ns": h["p50"], "p99_ns": h["p99"]}
        if row:
            repair_latency[scenario] = row
except Exception as e:
    print(f"  (metrics snapshot unavailable: {e})", file=sys.stderr)

try:
    commit = subprocess.check_output(
        ["git", "-C", os.environ.get("REPO_ROOT", "."), "rev-parse",
         "--short", "HEAD"], text=True).strip()
except Exception:
    commit = None

out = {
    "benchmark": "bench_overhead",
    "commit": commit,
    "context": {k: raw["context"].get(k)
                for k in ("host_name", "num_cpus", "mhz_per_cpu", "date")},
    "join_heavy": join,
    "batch_insert": batch,
    "history_probe": history,
    "packet_in": packetin,
    "packet_in_program_size": program_size,
    "provenance_overhead": overhead,
    "history": past,
    "perf_counters": perf_counters,
    "durable_log": durable,
    "durable_log_faulty": durable_faulty,
    "repair_latency": repair_latency,
    "metrics_snapshot": metrics_snapshot,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
for size, j in join.items():
    print(f"  join({size} rows): {j['indexed_tuples_per_sec']:,.0f} tuples/s indexed "
          f"vs {j['full_scan_tuples_per_sec']:,.0f} scanned "
          f"({j['speedup']:.1f}x)")
for size, b in batch.items():
    print(f"  bulk load({size} rows): {b['batch_insert_tuples_per_sec']:,.0f} tuples/s batched "
          f"vs {b['single_insert_tuples_per_sec']:,.0f} looped "
          f"({b['speedup']:.2f}x)")
for size, h in history.items():
    print(f"  history probe({size} tuples): {h['indexed_lookups_per_sec']:,.0f} lookups/s indexed "
          f"vs {h['scan_lookups_per_sec']:,.0f} scanned "
          f"({h['speedup']:.1f}x)")
if "ratio_450_to_0" in program_size:
    print(f"  program size: {program_size['0']['ns_per_packet_in']:.0f} ns/PacketIn "
          f"with 0 zone rules, {program_size['450']['ns_per_packet_in']:.0f} with 450 "
          f"({program_size['ratio_450_to_0']:.2f}x)")
if "after" in overhead:
    a = overhead["after"]
    bpe = f", {a['bytes_per_event']:.1f} B/event" if a.get("bytes_per_event") else ""
    print(f"  provenance overhead: {a['provenance_on_tuples_per_sec']:,.0f} tuples/s recording on "
          f"({a['speedup_vs_before']:.2f}x vs PR 5, "
          f"{a['speedup_vs_pre_interning']:.1f}x vs pre-interning{bpe})")
if "batched" in overhead:
    w = overhead["batched"]
    print(f"  batched arrival: {w['provenance_on_tuples_per_sec']:,.0f} tuples/s recording on "
          f"({w['speedup_vs_wave2']:.2f}x vs wave 2)")
if durable.get("segment_write_mb_per_sec"):
    print(f"  durable log: {durable['segment_write_mb_per_sec']:.1f} MB/s segment write "
          f"({durable['segment_write_inserts_per_sec']:,.0f} inserts/s durable), "
          f"{durable.get('reload_events_per_sec') or 0:,.0f} events/s reload")
if durable_faulty.get("segment_write_mb_per_sec"):
    rel = durable_faulty.get("relative_to_fault_free")
    print(f"  durable log (faulty): {durable_faulty['segment_write_mb_per_sec']:.1f} MB/s "
          f"with 1-in-1000 EINTR/short-write injection"
          + (f" ({rel:.2f}x of fault-free)" if rel else ""))
for scenario, row in sorted(repair_latency.items()):
    ex = row.get("explore")
    pipe = row.get("pipeline")
    if ex and pipe:
        print(f"  repair latency ({scenario}): explore p50 {ex['p50_ns']/1e6:.2f} ms "
              f"p99 {ex['p99_ns']/1e6:.2f} ms, pipeline p50 {pipe['p50_ns']/1e6:.1f} ms")
if perf:
    for key, row in perf.items():
        parts = ", ".join(f"{k.replace('_per_tuple','')}={v:,.0f}"
                          for k, v in row.items())
        print(f"  perf counters ({key}): {parts}/tuple")
else:
    print("  perf counters: unavailable (perf_event_open denied)")
EOF
