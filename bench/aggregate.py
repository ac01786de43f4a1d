#!/usr/bin/env python3
"""Merge per-target Google Benchmark JSON dumps into one file, and diff runs.

Workflow:
    mkdir -p bench-json
    ODYSSEY_BENCH_JSON_DIR=bench-json ./build/bench_distance_kernels
    ODYSSEY_BENCH_JSON_DIR=bench-json ./build/bench_fig10_scheduling
    ...
    python3 bench/aggregate.py bench-json -o BENCH_main.json

    # after a change, in a second directory:
    python3 bench/aggregate.py bench-json-new -o BENCH_pr.json
    python3 bench/aggregate.py --diff BENCH_main.json BENCH_pr.json

The merged file maps target name -> {context, benchmarks}; --diff prints
per-benchmark real_time ratios (new / old) so perf-tracked PRs can show
run-over-run numbers without bespoke parsing.
"""

import argparse
import json
import pathlib
import re
import statistics
import sys


def merge(directory: pathlib.Path) -> dict:
    merged = {}
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            print(f"warning: skipping {path}: {e}", file=sys.stderr)
            continue
        if "benchmarks" not in data:
            print(f"warning: skipping {path}: no 'benchmarks' key",
                  file=sys.stderr)
            continue
        merged[path.stem] = data
    return merged


def flatten(merged: dict) -> dict:
    """target/benchmark-name -> real_time (ns-normalized).

    A benchmark run with --benchmark_repetitions has one row per repetition
    under the same name; its value is the median of their real times, so one
    slow repetition cannot decide a gate. The library's own aggregate rows
    (mean, median, stddev, cv) are skipped.
    """
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    samples = {}
    for target, data in merged.items():
        for bm in data.get("benchmarks", []):
            if bm.get("run_type") == "aggregate":
                continue
            scale = unit_ns.get(bm.get("time_unit", "ns"), 1.0)
            samples.setdefault(f"{target}/{bm['name']}", []).append(
                bm.get("real_time", 0.0) * scale)
    return {name: statistics.median(times) for name, times in samples.items()}


def align(entries: dict, marker: str) -> dict:
    """Keep only names containing `marker`, with the marker spliced out.

    Two align() projections of the same run line up panels that differ only
    by the marker (e.g. `...PerQuery256/3/4` vs `...Batched256/3/4` both
    become `...256/3/4`), so --diff can gate one benchmark family against
    another — the batched-vs-per-query win condition — instead of only
    old-run vs new-run of the same name.
    """
    return {name.replace(marker, "", 1): v
            for name, v in entries.items() if marker in name}


def diff(old_path: pathlib.Path, new_path: pathlib.Path,
         fail_above: float | None = None,
         fail_filter: str = "",
         align_markers: tuple[str, str] | None = None) -> int:
    old = flatten(json.loads(old_path.read_text()))
    new = flatten(json.loads(new_path.read_text()))
    if align_markers is not None:
        old = align(old, align_markers[0])
        new = align(new, align_markers[1])
    common = sorted(set(old) & set(new))
    if not common:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 1
    width = max(len(name) for name in common)
    regressions = []
    print(f"{'benchmark':<{width}}  {'old_ms':>10}  {'new_ms':>10}  ratio")
    for name in common:
        o, n = old[name], new[name]
        ratio = n / o if o > 0 else float("inf")
        flag = "  <-- " + ("slower" if ratio > 1.10 else "faster") \
            if abs(ratio - 1.0) > 0.10 else ""
        print(f"{name:<{width}}  {o / 1e6:>10.3f}  {n / 1e6:>10.3f}  "
              f"{ratio:>5.2f}{flag}")
        if (fail_above is not None and ratio > fail_above
                and re.search(fail_filter, name)):
            regressions.append((name, ratio))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"\nonly in {old_path.name}: {len(only_old)} benchmarks")
    if only_new:
        print(f"only in {new_path.name}: {len(only_new)} benchmarks")
    if fail_above is not None:
        # A gated benchmark that vanished from the new run (renamed target,
        # bench that failed to register) must not slip past the gate as a
        # no-op: a regression could hide behind a rename.
        for name in only_old:
            if re.search(fail_filter, name):
                regressions.append((name, float("nan")))
                print(f"gated benchmark missing from {new_path.name}: {name}",
                      file=sys.stderr)
    if regressions:
        scope = f" matching '{fail_filter}'" if fail_filter else ""
        print(f"\nFAIL: {len(regressions)} benchmark(s){scope} regressed "
              f"beyond {fail_above:.2f}x or went missing:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}  {ratio:.2f}x", file=sys.stderr)
        return 2
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="*",
                        help="directory of per-target JSON dumps to merge, "
                             "or (with --diff) two merged files")
    parser.add_argument("-o", "--output", default="BENCH_merged.json",
                        help="merged output path (default: %(default)s)")
    parser.add_argument("--diff", action="store_true",
                        help="compare two merged files instead of merging")
    parser.add_argument("--fail-above", type=float, default=None,
                        metavar="RATIO",
                        help="with --diff: exit non-zero when any common "
                             "benchmark's new/old real-time ratio exceeds "
                             "RATIO (e.g. 1.10 gates >10%% regressions, the "
                             "PR gate for the build-time series)")
    parser.add_argument("--fail-filter", default="", metavar="REGEX",
                        help="with --fail-above: only benchmarks whose "
                             "target/name matches REGEX (re.search; plain "
                             "substrings work unchanged) count as gate "
                             "failures (e.g. 'Build' to gate only the "
                             "build-time series); all ratios are still "
                             "printed")
    parser.add_argument("--align", nargs=2, metavar=("OLD_MARK", "NEW_MARK"),
                        default=None,
                        help="with --diff: compare across benchmark families "
                             "instead of across runs — keep only old-file "
                             "names containing OLD_MARK and new-file names "
                             "containing NEW_MARK, splice the markers out, "
                             "and diff what lines up (e.g. --align PerQuery "
                             "Batched on one merged run gates batched "
                             "kernels against their per-query twins)")
    args = parser.parse_args()

    if args.diff:
        if len(args.inputs) != 2:
            parser.error("--diff needs exactly two merged files (old new)")
        return diff(pathlib.Path(args.inputs[0]), pathlib.Path(args.inputs[1]),
                    args.fail_above, args.fail_filter,
                    tuple(args.align) if args.align else None)

    if len(args.inputs) != 1:
        parser.error("merge mode needs exactly one input directory")
    directory = pathlib.Path(args.inputs[0])
    if not directory.is_dir():
        parser.error(f"{directory} is not a directory")
    merged = merge(directory)
    if not merged:
        print(f"no benchmark JSON files found in {directory}", file=sys.stderr)
        return 1
    pathlib.Path(args.output).write_text(json.dumps(merged, indent=2) + "\n")
    print(f"merged {len(merged)} targets "
          f"({sum(len(d['benchmarks']) for d in merged.values())} benchmarks) "
          f"-> {args.output}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `aggregate.py --diff a b | head`
        sys.exit(0)
