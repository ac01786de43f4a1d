#!/usr/bin/env python3
"""End-to-end benchmark of the Odyssey library: one command, four workloads.

    python3 bench/e2e/run.py                    # all workloads, untraced
    python3 bench/e2e/run.py --trace            # ... plus a traced run each
    python3 bench/e2e/run.py --workload partial-16k --seed 3 --seconds 15 \\
        --trace 0                               # one run, one JSON line
    python3 bench/e2e/run.py --seeds 1-10       # a result set for compare.py
    python3 bench/e2e/run.py --pair-with ../base --seeds 1-10
                                                # paired runs against a base
    python3 bench/e2e/run.py --smoke            # 1/50 size, all verified

Builds bench/e2e (and the library under it) in Release into
.bench_build/e2e, runs each workload in its own odyssey_bench process,
and prints every metric by name and unit. With --trace 0 a run reports
BENCHMARK.json's end-to-end metrics; with --trace 1 it writes a Chrome
trace-event file and reports the per-layer metrics derived from its spans.
The last stdout line is always one JSON object; a single run's holds
exactly `correct`, `attempted`, `failed` and `metrics`. Every run also
writes a results JSON (and its trace) under --out, by default
bench/e2e/results/<git revision> (a separate directory for --smoke).

A run measures for BENCHMARK.json's run_seconds; --seconds is accepted
only with that value, so every result set has the same run length.

--pair-with BASE runs the checkout at BASE (which has this script) and
this one seed by seed and workload by workload, back to back, alternating
which side goes first, into <out>/base and <out>/cand. compare.py then
judges each metric on the seed-paired ratios, which cancels the host's
slow speed drift that both runs of a pair share.

The script refuses to measure (exit 1, nothing written) when the host
cannot run a workload's threads, the build is not Release, or an
environment variable that changes the measured code path is set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RESULTS = HERE / "results"
BINARY = BUILD / "odyssey_bench"

# Every workload's cluster runs nodes x workers = 4 worker threads
# (odyssey_bench.cc's workload table).
WORKER_THREADS = 4
# Variables that select a different code path than the library defaults.
REFUSED_ENV = (
    "ODYSSEY_SIMD",
    "ODYSSEY_BATCHED_SCORING",
    "ODYSSEY_STEAL_DONATION",
    "ODYSSEY_BATCH_INFLIGHT",
    "ODYSSEY_NUMA",
    "ODYSSEY_NO_MMAP",
)
SMOKE_SCALE = 0.02
SMOKE_SECONDS = 1.0
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 850.0


class Refused(Exception):
    """The host or environment cannot produce a trustworthy result."""


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def usable_cpus():
    return len(os.sched_getaffinity(0))


def git_revision():
    """HEAD's commit id read straight from .git (no git process, nothing
    outside the checkout); "unknown" when the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_host():
    for name in REFUSED_ENV:
        if os.environ.get(name):
            raise Refused(f"{name} is set; it changes the measured code path")
    if usable_cpus() < WORKER_THREADS:
        raise Refused(f"the workloads run {WORKER_THREADS} worker threads but "
                      f"only {usable_cpus()} CPUs are usable")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Refused(f"no library sources under {ROOT}")


def build():
    """Configures and builds odyssey_bench in Release; returns the build
    type CMake actually recorded."""
    BUILD.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "odyssey_bench",
         "-j", str(usable_cpus())],
    ]
    for cmd in steps:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise Refused(f"build step failed: {' '.join(cmd)}")
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
            if build_type != "Release":
                raise Refused(f"build type is {build_type!r}, not Release")
            return build_type
    raise Refused("CMakeCache.txt records no build type")


def run_binary(workload, seed, seconds, scale, trace_path, extra=()):
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--scale", repr(scale),
           "--work-dir", str(work), *extra]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"odyssey_bench {workload} exited {done.returncode}")
    return json.loads(lines[-1])


# --------------------------------------------------------------- metrics


def load_spans(trace_path):
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    return [e for e in events if e.get("ph") == "X"]


def self_times(spans):
    """Per layer: total span duration minus the part of each span's
    interval its child spans cover (seconds)."""
    children = {}
    for s in spans:
        children.setdefault(s["args"]["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(s["args"]["span"], []),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["cat"]] = out.get(s["cat"], 0.0) + (s["dur"] - covered) / 1e6
    return out


def layer_metrics(spans):
    """The per-layer metrics, derived only from the spans and their
    arguments (durations in microseconds)."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def rate(name, unit_key, scale):
        return statistics.median(
            s["args"][unit_key] / (s["dur"] / 1e6) / scale for s in by[name])

    def durations(name, scale):
        return [s["dur"] * scale for s in by[name]]

    def total(name, key):
        return sum(s["args"][key] for s in by[name])

    m = {}
    m["dataset.ingest_gbps"] = rate("dataset.ingest", "bytes", 1e9)
    m["isax.paa_gbps"] = rate("isax.paa", "bytes", 1e9)
    m["core.partition_s"] = durations("core.partition", 1e-6)[0]
    m["core.shared_chunk_build_s"] = durations("core.shared_chunk_build",
                                               1e-6)[0]
    m["index.build_s"] = durations("index.build", 1e-6)[0]
    m["common.memcpy_gbps"] = rate("common.memcpy", "bytes", 1e9)
    m["distance.ed_gbps"] = rate("distance.ed", "bytes", 1e9)
    m["distance.ed_roofline"] = (m["distance.ed_gbps"]
                                 / m["common.memcpy_gbps"])
    m["distance.batched_ed_gbps"] = rate("distance.batched_ed", "bytes", 1e9)
    m["distance.lb_keogh_gbps"] = rate("distance.lb_keogh", "bytes", 1e9)
    m["distance.dtw_mcells"] = rate("distance.dtw", "cells", 1e6)
    prepare = by["query.prepare"][0]
    m["query.prepare_us"] = prepare["dur"] / prepare["args"]["queries"]
    m["index.seed_us_p50"] = statistics.median(durations("index.seed", 1.0))
    search_ms = durations("index.search", 1e-3)
    m["index.search_ms_p50"] = statistics.median(search_ms)
    m["index.search_ms_p99"] = statistics.quantiles(
        search_ms, n=100, method="inclusive")[98]
    m["index.leaves_per_query"] = (total("index.search", "leaves_processed")
                                   / len(search_ms))
    m["index.pop_ratio"] = (total("index.search", "leaves_processed")
                            / max(1.0, total("index.search",
                                             "leaves_inserted")))
    m["index.distance_frac"] = (total("index.search", "real_distances")
                                / total("index.search", "chunk_series"))
    m["index.grouped_search_ms"] = statistics.median(
        durations("index.grouped_search", 1e-3))

    calls = by["core.answer_batch"]
    # busy_seconds sums the wall time of every query a node ran, so with
    # several queries in flight per node it is divided by the call's
    # in-flight high-water mark to approximate the node's active time.
    def active(c, key):
        return c["args"][key] / max(1.0, c["args"]["inflight_hwm"])

    queries = sum(c["args"]["queries"] for c in calls)
    m["core.coord_ms"] = statistics.median(
        c["dur"] / 1e3 - 1e3 * active(c, "busy_max_s") for c in calls)
    m["core.scheduling_ms"] = statistics.median(
        1e3 * c["args"]["scheduling_s"] for c in calls)
    m["core.busy_imbalance"] = statistics.median(
        c["args"]["busy_max_s"]
        / max(1e-12, c["args"]["busy_sum_s"] / c["args"]["nodes"])
        for c in calls)
    m["core.idle_frac"] = statistics.median(
        1.0 - active(c, "busy_sum_s") / (c["args"]["nodes"] * c["dur"] / 1e6)
        for c in calls)
    m["core.steals_per_call"] = statistics.mean(
        c["args"]["steals"] for c in calls)
    m["core.given_away_per_call"] = statistics.mean(
        c["args"]["given_away"] for c in calls)
    m["core.inflight_hwm"] = max(c["args"]["inflight_hwm"] for c in calls)
    m["net.messages_per_query"] = (sum(c["args"]["messages"] for c in calls)
                                   / queries)
    m["net.bsf_updates_per_query"] = (
        sum(c["args"]["bsf_updates"] for c in calls) / queries)
    pings = by["net.mailbox_pingpong"][0]
    m["net.mailbox_rtt_us"] = pings["dur"] / pings["args"]["round_trips"]
    m["common.threads_spawned_per_call"] = statistics.mean(
        c["args"]["threads_spawned"] for c in calls)
    m["trace.qps"] = queries / (sum(c["dur"] for c in calls) / 1e6)
    return m


# ------------------------------------------------------------ one run


def run_one(spec, workload, seed, seconds, scale, trace, provenance,
            out_dir):
    """Runs one workload once; returns the result record (also written
    under `out_dir`)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{'traced' if trace else 'untraced'}" \
           f"-{time.time_ns()}"
    trace_path = out_dir / f"{stem}.trace.json" if trace else None
    load_before = os.getloadavg()
    out = run_binary(workload, seed, seconds, scale, trace_path)
    load_after = os.getloadavg()

    # odyssey_bench reports the end-to-end metrics under their own names.
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    spans = load_spans(trace_path) if trace else None
    values = layer_metrics(spans) if trace else out
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": out["failed"] == 0 and out["attempted"] > 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "verify_s": out["verify_s"],
        "calls": out["calls"],
        # A run records measurements only; a performance claim is made by
        # comparing result sets (compare.py), never by a single run.
        "claim": None,
        "provenance": dict(provenance, isa=out["isa"],
                           build_type_binary=out["build_type"],
                           loadavg_before=list(load_before),
                           loadavg_after=list(load_after)),
        "binary": out,
    }
    if trace:
        record["trace_file"] = trace_path.name
        record["layer_self_s"] = self_times(spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record, untraced_qps=None):
    mode = "traced" if record["trace"] else "untraced"
    failed_frac = record["failed"] / max(1, record["attempted"])
    print(f"== {record['workload']} seed {record['seed']} ({mode}): "
          f"{record['attempted']} answers checked, failed_frac "
          f"{failed_frac:.4g}, verify_s {record['verify_s']:.3f}")
    for name, m in record["metrics"].items():
        print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
    if not record["trace"]:
        out = record["binary"]
        print(f"   info (not gated): {out['calls']:.0f} calls, latency_p90_ms "
              f"{out['latency_p90_ms']:.6g}, latency_p99_ms "
              f"{out['latency_p99_ms']:.6g}")
    else:
        for layer, secs in sorted(record["layer_self_s"].items()):
            print(f"   self time {layer:24s} {secs:14.6g} s")
        if untraced_qps:
            traced = record["metrics"]["trace.qps"]["value"]
            print(f"   tracing overhead: traced qps {traced:.6g} vs "
                  f"untraced {untraced_qps:.6g} "
                  f"({100.0 * (1.0 - traced / untraced_qps):+.2f}%)")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def run_paired(base_root, workloads, seeds, out):
    """Runs BASE_ROOT's run.py and this one on every (seed, workload), back
    to back, into out/base and out/cand; the side that goes first
    alternates from seed to seed. Returns the runs' final JSON lines."""
    sides = [("base", Path(base_root).resolve() / "bench" / "e2e" / "run.py"),
             ("cand", Path(__file__).resolve())]
    results = []
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for label, script in (sides if i % 2 == 0 else sides[::-1]):
                done = subprocess.run(
                    [sys.executable, str(script), "--workload", workload,
                     "--seed", str(seed), "--trace", "0",
                     "--out", str(out / label)],
                    stdout=subprocess.PIPE, text=True,
                    timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    raise RuntimeError(f"{label} {workload} seed {seed} "
                                       f"exited {done.returncode}")
                log(f"{label} {workload} seed {seed}: {lines[-1]}")
                results.append(json.loads(lines[-1]))
    return results


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="several seeds, e.g. 1-10 or 1,4,9")
    parser.add_argument("--seconds", type=float,
                        help="must be BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics (bare --trace "
                             "with all workloads runs untraced and traced)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50-size workloads, 1 s each, every answer "
                             "verified, plus the verification self-test")
    parser.add_argument("--out", type=Path,
                        help="results directory (default: "
                             "bench/e2e/results/<git revision>)")
    parser.add_argument("--pair-with", metavar="BASE",
                        help="checkout to run seed-paired against this one "
                             "(untraced)")
    args = parser.parse_args()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']}, "
                     "BENCHMARK.json's run_seconds")
    if args.pair_with and (args.trace or args.smoke):
        parser.error("--pair-with runs untraced full-size runs only")

    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    seconds, scale = float(spec["run_seconds"]), 1.0
    if args.smoke:
        seconds, scale = SMOKE_SECONDS, SMOKE_SCALE
    single = len(workloads) == 1 and len(seeds) == 1
    revision = git_revision()
    out = args.out or RESULTS / (revision + ("-smoke" if args.smoke else ""))

    if args.pair_with:
        try:
            runs = run_paired(args.pair_with, workloads, seeds, out)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            log(f"paired run failed: {e}")
            return 1
        print(json.dumps({"correct": all(r["correct"] for r in runs),
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": sum(r["failed"] for r in runs),
                          "runs": len(runs), "results": str(out)}))
        return 0

    try:
        check_host()
        build_type = build()
    except (Refused, subprocess.TimeoutExpired, OSError) as e:
        log(f"refusing to measure: {e}")
        return 1
    provenance = {
        "nproc": usable_cpus(),
        "build_type": build_type,
        "git_revision": revision,
        "odyssey_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("ODYSSEY_")},
        "seconds": seconds,
        "scale": scale,
    }

    records = []
    try:
        if args.smoke:
            verdict = run_binary("partial-16k", 1, SMOKE_SECONDS, SMOKE_SCALE,
                                 None, ("--self-test-verify",))
            log(f"verification self-test: {verdict}")
        for seed in seeds:
            for workload in workloads:
                untraced_qps = None
                if not (single and args.trace):
                    rec = run_one(spec, workload, seed, seconds, scale, False,
                                  provenance, out)
                    untraced_qps = rec["metrics"]["qps"]["value"]
                    records.append(rec)
                    print_record(rec)
                if args.trace:
                    rec = run_one(spec, workload, seed, seconds, scale, True,
                                  provenance, out)
                    records.append(rec)
                    print_record(rec, untraced_qps)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log(f"run failed: {e}")
        return 1

    correct = all(r["correct"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if single:
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed,
                          "metrics": records[0]["metrics"]}))
    else:
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "runs": len(records),
                          "results": str(out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
