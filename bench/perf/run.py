#!/usr/bin/env python3
"""Host-cost benchmark: build abftbench, run workloads, check, report.

  python3 bench/perf/run.py                  every workload, one run each
  python3 bench/perf/run.py --trace          ... plus a traced run each: span
                                             file, per-layer table, self time
                                             and tracing overhead
  python3 bench/perf/run.py --repeat-check   two sets of ten runs per
                                             workload; medians, quartiles,
                                             spread and drift against
                                             BENCHMARK.json's bounds (ok,
                                             unresolved or FAIL per pair)
  python3 bench/perf/run.py --smoke          every workload and the traced
                                             path at tiny sizes (< 20 s)
  python3 bench/perf/run.py --workload W --seed N --seconds S --trace 0|1
                                             one run; the last stdout line is
                                             {"correct", "attempted", "failed",
                                             "metrics"}

Run from anywhere; paths resolve against the repository root. The build
goes to build-bench/ (configured with bench/perf/hook.cmake, so no file
outside bench/perf is edited) and scratch output to build-bench/perf/.
The metric dictionary -- names, units, directions, bounds -- is the root
BENCHMARK.json; bench/perf/README.md explains each metric. Exits nonzero
when any output check fails.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
WORK = BUILD / "perf"
HOOK = ROOT / "bench" / "perf" / "hook.cmake"
BIN = WORK / "abftbench"
DAEMON = BUILD / "tools" / "campaignd"

# Percentiles a tail latency may be reported at; the highest one with at
# least TAIL_MIN_BEYOND samples beyond it is used.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
RUN_TIMEOUT_S = 170
SPLIT_TOLERANCE = 0.10
# Runs per set in --repeat-check, each on its own seed.
REPEAT_RUNS = 10


# --- statistics --------------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def rank(n, p):
    """1-based nearest rank of percentile p among n samples."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank percentile p."""
    return n - rank(n, p)


def tail_percentile(n):
    """Highest ladder percentile with >= TAIL_MIN_BEYOND of n samples
    beyond it, or None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile."""
    return sorted(values)[rank(len(values), p) - 1]


def tail(values):
    """(p, value) at the tail percentile of `values`; a sample too small
    for any tail falls back to its nearest-rank median."""
    p = tail_percentile(len(values)) or 50.0
    return p, percentile(values, p)


def worsening(old, new, better):
    """How much worse `new` is than `old`, as a share of `old` (negative
    when it is better)."""
    if old == 0:
        return 0.0 if new == old else math.inf
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def within_bound(old, new, better, bound):
    return worsening(old, new, better) <= bound


def self_times(events):
    """Per span name: total duration minus the time its child spans cover
    (the union of the children's intervals, clipped to the parent)."""
    children = defaultdict(list)
    for e in events:
        parent = e["args"].get("parent")
        if parent is not None:
            children[parent].append((e["ts"], e["ts"] + e["dur"]))
    out = defaultdict(float)
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cur_s, cur_e = 0.0, None, None
        for s, t in sorted(children[e["args"]["id"]]):
            s, t = max(s, start), min(t, end)
            if t <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, t
            else:
                cur_e = max(cur_e, t)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[e["name"]] += e["dur"] - covered
    return dict(out)


# --- building and running ----------------------------------------------------


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (incrementally) build the driver and daemon."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release",
               f"-DCMAKE_PROJECT_abftecc_INCLUDE={HOOK}"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "abftbench",
           "campaignd", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def run_abftbench(workload, seed, seconds, trace_file=None, smoke=False):
    """One workload in its own process; returns its JSON report."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--campaignd", str(DAEMON.relative_to(ROOT)),
           "--work-dir", str((WORK / f"work-{workload}").relative_to(ROOT))]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    # Single-threaded linalg (OpenMP) for native-ft; campaign-storm's four
    # threads come from the campaign pool, not OpenMP.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    # Own process group, so a timeout also takes down a spawned daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"run.py: abftbench {workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def op_ms_p50(parts):
    """Median operation time: the sum of each part's median (one part for
    single-call operations)."""
    return sum(median(v) for v in parts.values())


def op_totals(parts):
    """Whole-operation times, one per operation."""
    return [sum(op) for op in zip(*parts.values())]


def end_to_end(raw):
    """The end-to-end metrics of one run."""
    return {
        "setup_s": median(raw["setup_s"]),
        "op_ms_p50": op_ms_p50(raw["op_ms"]),
        "op_ms_tail": tail(op_totals(raw["op_ms"]))[1],
        "rss_mb": (raw["rss_kb"] + raw["rss_children_kb"]) / 1024.0,
    }


def per_layer(raw, spec):
    """Every declared per-layer metric; 0 where the workload does not run
    that layer. An undeclared metric is a driver/dictionary mismatch."""
    declared = {m["name"] for m in spec["per_layer"]}
    unknown = set(raw["layers"]) - declared
    if unknown:
        sys.exit("run.py: metrics missing from BENCHMARK.json: "
                 f"{sorted(unknown)}")
    return {m["name"]: raw["layers"].get(m["name"], {"value": 0.0})["value"]
            for m in spec["per_layer"]}


def result_line(raw, metrics, units):
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


# --- reports -----------------------------------------------------------------


def print_checks(raw):
    frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    print(f"  checks: {raw['attempted']} attempted, {raw['failed']} failed "
          f"(error_frac {frac:g})")
    for f in raw["failures"]:
        print(f"    FAILED: {f}")


def print_run(raw, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"\n== {raw['workload']} (seed {raw['seed']})")
    e2e = end_to_end(raw)
    for name, value in e2e.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    ops = op_totals(raw["op_ms"])
    p, _ = tail(ops)
    print(f"  {'op_ms_tail percentile':32s} {'p%g' % p:>14s} "
          f"({len(ops)} samples, {samples_beyond(len(ops), p)} beyond)")
    for name, m in raw["detail"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print_checks(raw)


def print_traced(raw, untraced, trace_file, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n== {raw['workload']} traced -> {trace_file.relative_to(ROOT)}")
    for name, m in raw["layers"].items():
        print(f"  {name:36s} {m['value']:14.6g} {units[name]}")
    layers = {k: m["value"] for k, m in raw["layers"].items()}
    if "sim.kernel_s" in layers:
        parts = (layers["sim.inputgen_s"] + layers["sim.session_s"] +
                 layers["sim.kernel_s"])
        cover = parts / layers["sim.run_kernel_s"]
        note = "" if abs(cover - 1) <= SPLIT_TOLERANCE else "  OUTSIDE 10%"
        print("  split: inputgen + session + abft + tap + memsim.{l1,l2,dram}"
              f" = {cover:.3f} x run_kernel wall{note}")
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    selfs = sorted(self_times(events).items(), key=lambda kv: -kv[1])
    print("  self time by span (ms):")
    for name, us in selfs:
        print(f"    {name:34s} {us / 1e3:12.3f}")
    print("  tracing overhead (traced - untraced):")
    on, off = end_to_end(raw), end_to_end(untraced)
    for name in on:
        print(f"    {name:34s} {on[name] - off[name]:+12.6g} "
              f"({worsening(off[name], on[name], 'lower'):+.1%})")
    print_checks(raw)


def verdict(a, b, better, bound):
    """Repeat-check status of one (metric, workload) pair measured in two
    sets of runs of the same code: "unresolved" when either set's spread is
    wider than the bound (a regression of that size could not be told from
    noise), "FAIL" when the second median is worse than the first by more
    than the bound, else "ok"."""
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if not within_bound(median(a), median(b), better, bound):
        return "FAIL"
    return "ok"


def repeat_check(args, spec):
    """Two sets of REPEAT_RUNS runs per workload, each run on its own seed;
    report each set's median and quartiles and the spread against the
    bound. Every end-to-end metric is held to its bound, setup_s too."""
    ok = True
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        if args.workload and w != args.workload:
            continue
        sets = []
        for s in range(2):
            values = defaultdict(list)
            for i in range(REPEAT_RUNS):
                seed = 1 + s * REPEAT_RUNS + i
                raw = run_abftbench(w, seed, spec["run_seconds"])
                if raw["failed"]:
                    ok = False
                    log(f"{w} seed {seed}: {raw['failures']}")
                for k, v in end_to_end(raw).items():
                    values[k].append(v)
                log(f"{w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v[-1]:.5g}" for k, v in values.items()))
            sets.append(values)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            status = verdict(a, b, m["better"], bound)
            ok &= status == "ok"
            rows.append((w, name, quartiles(a), quartiles(b), spread(a),
                         spread(b), worsening(median(a), median(b),
                                              m["better"]), bound, status))
    print(f"\n{'workload':18s} {'metric':10s} {'set1 q1/med/q3':>30s} "
          f"{'set2 q1/med/q3':>30s} {'spread1':>8s} {'spread2':>8s} "
          f"{'drift':>7s} {'bound':>6s}")
    for w, name, qa, qb, sa, sb, drift, bound, status in rows:
        fa = "/".join(f"{x:.4g}" for x in qa)
        fb = "/".join(f"{x:.4g}" for x in qb)
        print(f"{w:18s} {name:10s} {fa:>30s} {fb:>30s} {sa:8.2%} {sb:8.2%} "
              f"{drift:+7.2%} {bound:6.0%} {status}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="traced run (per-layer metrics)")
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload}; one of {names}")
    seconds = args.seconds or spec["run_seconds"]
    start = time.monotonic()
    build()
    log(f"run.py: build ready in {time.monotonic() - start:.1f} s")

    if args.repeat_check:
        sys.exit(0 if repeat_check(args, spec) else 1)

    if args.workload is not None and not args.smoke:
        # One run, reported as a single result line.
        trace_file = (WORK / f"trace-{args.workload}.json"
                      if args.trace else None)
        raw = run_abftbench(args.workload, args.seed, seconds, trace_file)
        if args.trace:
            metrics = per_layer(raw, spec)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics = end_to_end(raw)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for f in raw["failures"]:
            log(f"run.py: {args.workload}: check failed: {f}")
        line = result_line(raw, metrics, units)
        print(json.dumps(line))
        sys.exit(0 if line["correct"] else 1)

    # Every workload (or one, with --smoke): report tables.
    attempted = failed = 0
    summary = {}
    for w in names:
        if args.workload is not None and w != args.workload:
            continue
        raw = run_abftbench(w, args.seed, seconds, smoke=args.smoke)
        print_run(raw, spec)
        attempted += raw["attempted"]
        failed += raw["failed"]
        summary[w] = end_to_end(raw)
        if args.trace or args.smoke:
            trace_file = WORK / f"trace-{w}.json"
            traced = run_abftbench(w, args.seed, seconds, trace_file,
                                   smoke=args.smoke)
            print_traced(traced, raw, trace_file, spec)
            attempted += traced["attempted"]
            failed += traced["failed"]
    print(f"\nrun.py: {attempted} checks, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "workloads": summary}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
