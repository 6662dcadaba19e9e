#!/usr/bin/env python3
"""End-to-end repair benchmark runner (see README.md).

One run of one workload, the form BENCHMARK.json's command takes:

    python3 e2ebench/run_e2e.py --workload NAME --seed N --seconds S --trace 0|1

The suite, every workload in rotating rounds with one process per
workload-round, then one traced run per workload:

    python3 e2ebench/run_e2e.py [--seed N] [--rounds R] [--seconds S]
                                [--sets 1|2] [--quick] [--out FILE]

Round r of the suite runs at seed N + r. --sets 2 runs every workload-round
twice, as sets A and B of the same code, alternating which goes first.
--quick runs 2 pipeline rounds per workload plus 1 traced round.

Every run builds bench_e2e from the checkout's sources into .bench_build/,
checks the program's outputs (the binary's own checks plus the goldens in
goldens.json) and prints the metrics. The last stdout line of a one-workload
run is one JSON object with the keys correct, attempted, failed and metrics.
Any failed check makes the runner exit non-zero.
"""

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "bench_e2e"
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures once, then brings bench_e2e up to date (a no-op when it is)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run_e2e: the repository sources (CMakeLists.txt, src/) "
                 f"are not under {ROOT}")
    steps = [["cmake", "--build", str(BUILD), "--target", "bench_e2e",
              "-j", JOBS]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            sys.exit(f"run_e2e: build failed: {' '.join(cmd)}")


def run_binary(workload, seed, trace, seconds=None, rounds=None, spans=None):
    """Runs one workload in a fresh process; returns the binary's JSON."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    cmd += ["--rounds", str(rounds)] if rounds else ["--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = 600 if rounds else seconds + 150
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run_e2e: bench_e2e exited with {proc.returncode}: "
                 f"{' '.join(cmd)}")
    return lines[:-1], json.loads(lines[-1])


def check(result, bench, goldens):
    """Golden and schema checks; returns (errors, pipelines failed)."""
    errors = list(result["errors"])
    failed = result["failed"]
    workload, seed = result["workload"], result["seed"]
    pinned = goldens["seeds"].get(str(seed), {}).get(workload)
    if pinned is not None:
        for scenario, want in pinned.items():
            got = result["scenarios"].get(scenario)
            if got is None or any(got.get(k) != v for k, v in want.items()):
                errors.append(f"{workload} {scenario} seed {seed}: golden "
                              f"{json.dumps(want)} != output {json.dumps(got)}")
                failed = result["attempted"]

    kind = "per_layer" if result["trace"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = result["metrics"]
    if list(got) != list(want):
        errors.append(f"metrics {list(got)} != BENCHMARK.json {kind} "
                      f"{list(want)}")
    for name, m in got.items():
        if (set(m) != {"value", "unit"} or m["unit"] != want.get(name)
                or not isinstance(m["value"], (int, float))
                or not math.isfinite(m["value"])):
            errors.append(f"metric {name}: malformed {json.dumps(m)}")
    return errors, failed


def contract_line(result, errors, failed):
    line = {
        "correct": not errors and failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    return line


def one_workload(args, bench, goldens):
    build()
    spans = None
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl"
    human, result = run_binary(args.workload, args.seed, args.trace,
                               seconds=args.seconds, spans=spans)
    errors, failed = check(result, bench, goldens)
    for line in human:
        print(line)
    for e in errors:
        print(f"FAILED: {e}")
    line = contract_line(result, errors, failed)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def git_state():
    if not (ROOT / ".git").exists():
        return None, None

    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT), *argv],
                              stdout=subprocess.PIPE, text=True).stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))


def suite(args, bench, goldens):
    build()
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    sets = ["A", "B"][:args.sets]
    values = {s: {w: {m: [] for m in e2e} for w in names} for s in sets}
    traced = {}
    total_failed = 0
    all_errors = []

    def run(workload, seed, trace, **kw):
        nonlocal total_failed
        _, result = run_binary(workload, seed, trace, **kw)
        errors, failed = check(result, bench, goldens)
        total_failed += failed
        all_errors.extend(errors)
        for e in errors:
            log(f"FAILED: {e}")
        contract_line(result, errors, failed)
        return result

    pipeline_rounds = 2 if args.quick else None
    seconds = None if args.quick else args.seconds
    for r in range(args.rounds):
        seed = args.seed + r
        order = names[r % len(names):] + names[:r % len(names)]
        for w in order:
            for s in (sets if r % 2 == 0 else sets[::-1]):
                result = run(w, seed, 0, seconds=seconds,
                             rounds=pipeline_rounds)
                for m, v in result["metrics"].items():
                    values[s][w][m].append(v["value"])
                log(f"round {r} seed {seed} set {s} {w}: "
                    f"turnaround_ms {result['metrics']['turnaround_ms']['value']:.2f}")
    for w in names:
        spans = BUILD / f"spans-{w}-seed{args.seed}.jsonl"
        result = run(w, args.seed, 1, seconds=seconds,
                     rounds=1 if args.quick else None, spans=spans)
        traced[w] = {m: v["value"] for m, v in result["metrics"].items()}

    summary = {}
    for s in sets:
        summary[s] = {}
        for w in names:
            summary[s][w] = {}
            for m, vs in values[s][w].items():
                q1, med, q3 = quartiles(vs)
                summary[s][w][m] = {"n": len(vs), "median": med, "q1": q1,
                                    "q3": q3, "unit": e2e[m]["unit"]}

    problems = []
    for w in names:
        print(f"== {w}")
        for m, spec in e2e.items():
            row = []
            for s in sets:
                st = summary[s][w][m]
                row.append(f"{s}: {st['median']:.6g} [{st['q1']:.6g}, "
                           f"{st['q3']:.6g}] n={st['n']}")
                spread = (st["q3"] - st["q1"]) / st["median"]
                if m != "setup_s" and spread > spec["bound"]:
                    problems.append(f"{w} {m} set {s}: spread {spread:.3f} "
                                    f"> bound {spec['bound']}")
            if len(sets) == 2:
                a = summary["A"][w][m]["median"]
                b = summary["B"][w][m]["median"]
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                row.append(f"B worse by {worse:+.3f}")
                if worse > spec["bound"]:
                    problems.append(f"{w} {m}: set B worse than A by "
                                    f"{worse:.3f} > bound {spec['bound']}")
            print(f"  {m} ({spec['unit']}): " + "; ".join(row))
        print(f"  traced: " + ", ".join(f"{m}={v:.6g}"
                                        for m, v in traced[w].items()))
    for p in problems:
        print(f"OUT OF BOUND: {p}")

    commit, dirty = git_state()
    report = {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": seconds,
        "quick": args.quick,
        "failed": total_failed,
        "sets": summary,
        "traced": traced,
        "out_of_bound": problems,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if all_errors or total_failed:
        print(f"FAILED: {total_failed} pipelines, {len(all_errors)} errors")
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"run_e2e: no BENCHMARK.json under {ROOT}")
    bench = load_json(ROOT / "BENCHMARK.json")
    goldens = load_json(HERE / "goldens.json")
    if args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return one_workload(args, bench, goldens)
    if args.seconds is None:
        args.seconds = 8.0
    if args.quick:
        args.rounds = 1
    return suite(args, bench, goldens)


if __name__ == "__main__":
    sys.exit(main())
